import dataclasses
import os
import subprocess
import sys
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rggembed import trees
from rggembed.decompose import (
    Decomposition,
    _RootedTree,
    check_decomposition,
    split_tree,
)


def neighbours(tree, v):
    """The CSR row of v as a list."""
    return tree.indices[tree.indptr[v] : tree.indptr[v + 1]].tolist()


def make_star(n):
    """The star with centre 0 on n vertices."""
    return trees.Tree.from_edges(n, [(0, i) for i in range(1, n)])


def weighted_centroid(tree, w=None):
    """The centroid ``split_tree`` cuts at: the vertex minimising the
    heaviest component of T minus it, ties to the smallest id."""
    w = np.ones(tree.n) if w is None else np.asarray(w, dtype=np.float64)
    return _RootedTree(tree, w).centroid_cut(np.arange(tree.n))[0]


def per_part_bfs(tree, part_of, sources):
    """Oracle: a queue BFS from the sorted ``sources`` over the tree's edges
    inside parts, as a hand-rolled loop; returns the visit order and each
    visited vertex's hop distance to the nearest source."""
    dist = dict.fromkeys(sources, 0)
    order, queue = [], deque(sources)
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in neighbours(tree, u):
            if v not in dist and part_of[v] == part_of[u]:
                dist[v] = dist[u] + 1
                queue.append(v)
    return order, dist


def brute_force_centroid(tree, w):
    """Try every vertex; exhaustive oracle for small trees."""
    best_v, best_score = None, None
    for v in range(tree.n):
        # component weights of tree minus v
        seen = {v}
        score = 0.0
        for start in neighbours(tree, v):
            if start in seen:
                continue
            comp_w, stack = 0.0, [start]
            seen.add(start)
            while stack:
                x = stack.pop()
                comp_w += w[x]
                for y in neighbours(tree, x):
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            score = max(score, comp_w)
        if best_score is None or score < best_score:
            best_v, best_score = v, score
    return best_v, best_score


def reference_split(tree, w, m):
    """The centroid rule as a plain loop over vertex sets: re-root every
    component at its first vertex, take the weighted centroid (ties to the
    smaller id), cut toward its heaviest neighbour side (ties to the smaller
    neighbour id), recurse.  Returns (sorted parts, sorted cut edges)."""
    blocked, parts, cuts = set(), [], []

    def walk(start, stop):
        order, parent, seen, stack = [start], {start: -1}, {start, stop}, [start]
        while stack:
            x = stack.pop()
            for y in neighbours(tree, x):
                if y not in seen and (x, y) not in blocked and (y, x) not in blocked:
                    seen.add(y)
                    parent[y] = x
                    order.append(y)
                    stack.append(y)
        return order, parent

    pending = [list(range(tree.n))]
    while pending:
        comp = pending.pop()
        if float(w[comp].sum()) <= m + 1e-12:
            parts.append(sorted(comp))
            continue
        order, parent = walk(comp[0], -1)
        sub = {v: w[v] for v in order}
        for v in reversed(order[1:]):
            sub[parent[v]] += sub[v]
        total = sub[order[0]]

        def sides(v):  # (weight, neighbour) of every component of comp - v
            out = [(total - sub[v], parent[v])] if parent[v] >= 0 else []
            return out + [(sub[c], c) for c in neighbours(tree, v) if c in sub and parent[c] == v]

        v = min(order, key=lambda x: (max(s for s, _ in sides(x)), x))
        _, u = max(sides(v), key=lambda side: (side[0], -side[1]))
        cuts.append((min(u, v), max(u, v)))
        blocked.add((u, v))
        side_u, _ = walk(u, v)
        pending.append(side_u)
        pending.append(sorted(set(comp) - set(side_u)))
    return sorted(parts), sorted(cuts)


class TestWeightedCentroid:
    def test_path_middle(self):
        p5 = trees.path_tree(5)
        assert weighted_centroid(p5) == 2
        _, score = brute_force_centroid(p5, np.ones(5))
        assert score == 2

    def test_star_centre(self):
        assert weighted_centroid(make_star(5)) == 0
        _, score = brute_force_centroid(make_star(5), np.ones(5))
        assert score == 1

    @given(seed=st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        tree = trees.uniform_random_tree(n, seed)
        w = rng.uniform(0.1, 2.0, size=n)
        v = weighted_centroid(tree, w)
        _, best = brute_force_centroid(tree, w)
        # same objective value; ties may pick different vertices, so compare scores
        seen = {v}
        score = 0.0
        for start in neighbours(tree, v):
            comp_w, stack = 0.0, [start]
            seen.add(start)
            while stack:
                x = stack.pop()
                comp_w += w[x]
                for y in neighbours(tree, x):
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            score = max(score, comp_w)
        assert score == pytest.approx(best)

    def test_tie_breaks_to_smaller_id(self):
        # P4: vertices 1 and 2 both give max component weight 2
        assert weighted_centroid(trees.path_tree(4)) == 1


class TestSplitTree:
    def test_path_example(self):
        p10 = trees.path_tree(10)
        dec = split_tree(p10, None, 6.0, 2)
        check_decomposition(p10, None, 6.0, 2, dec)
        # parts of a path are contiguous runs
        for part in dec.parts:
            assert list(part) == list(range(part[0], part[-1] + 1))
            assert 2.0 <= len(part) <= 6.0

    def test_single_part_when_light(self):
        star = make_star(4)
        dec = split_tree(star, None, 4.0, 3)
        assert dec.k == 1 and dec.cut_edges == () and dec.anchors == ()
        assert np.all(dec.levels == 0)

    def test_precondition_violations(self):
        p10 = trees.path_tree(10)
        with pytest.raises(ValueError, match="exceeds delta"):
            split_tree(make_star(5), None, 10.0, 3)
        with pytest.raises(ValueError, match="> m0"):
            # m0 = 0.5 < unit weights
            split_tree(p10, None, 1.5, 2)
        w = np.full(10, 0.01)
        with pytest.raises(ValueError, match="total weight"):
            split_tree(p10, w, 3.0, 2)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=80, deadline=None)
    def test_invariants_random_unit_weights(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 200))
        delta = int(rng.integers(2, 7))
        tree = trees.random_bounded_degree_tree(n, delta, seed)
        # m0 >= 1 needs m >= delta + 1
        m = float(rng.uniform(delta + 1, max(delta + 2, 1.5 * n)))
        dec = split_tree(tree, None, m, delta)
        check_decomposition(tree, None, m, delta, dec)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_invariants_random_weights(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 120))
        delta = int(rng.integers(2, 6))
        tree = trees.random_bounded_degree_tree(n, delta, seed)
        m = float(rng.uniform(2.0, 20.0))
        m0 = m / (delta + 1)
        w = rng.uniform(1e-3, m0, size=n)
        if w.sum() < m0:
            w *= 1.1 * m0 / w.sum()
            w = np.minimum(w, m0)
        dec = split_tree(tree, w, m, delta)
        check_decomposition(tree, w, m, delta, dec)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 150))
        delta = int(rng.integers(2, 6))
        tree = trees.random_bounded_degree_tree(n, delta, seed)
        if seed % 3:
            w, m = np.ones(n), float(rng.uniform(delta + 1, max(delta + 2, n)))
        else:
            m = float(rng.uniform(2.0, 20.0))
            w = rng.uniform(1e-3, m / (delta + 1), size=n)
            if w.sum() < m / (delta + 1):
                w = np.minimum(w * (1.1 * m / (delta + 1) / w.sum()), m / (delta + 1))
        dec = split_tree(tree, w, m, delta)
        assert (list(map(list, dec.parts)), list(dec.cut_edges)) == reference_split(tree, w, m)

    def test_deterministic(self):
        tree = trees.random_bounded_degree_tree(80, 4, 3)
        a = split_tree(tree, None, 12.0, 4)
        b = split_tree(tree, None, 12.0, 4)
        assert a.parts == b.parts and a.cut_edges == b.cut_edges


def random_split(seed):
    """A random tree and its split; every fifth seed holds the whole tree in
    one anchor-free part."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 150))
    delta = int(rng.integers(3, 6))
    tree = trees.random_bounded_degree_tree(n, delta, seed)
    if seed % 5 == 0:
        m = float(max(n, delta + 1))
    else:
        m = float(rng.uniform(delta + 1, max(delta + 2, n)))
    return tree, split_tree(tree, None, m, delta), rng


class TestComputeLevels:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_matches_all_pairs_oracle(self, seed):
        # each vertex's level against a BFS from it inside its part (nearest
        # same-part anchor), and the placement order against one queue BFS
        # per part from its sorted anchors (from vertex 0 when anchor-free)
        tree, dec, _ = random_split(seed)
        anchors = set(dec.anchors)
        for v in range(tree.n):
            if not anchors:
                assert dec.levels[v] == 0
                continue
            _, dist = per_part_bfs(tree, dec.part_of, [v])
            assert dec.levels[v] == min(dist[a] for a in anchors if a in dist)
        order = []
        for part in dec.parts:
            part_order, _ = per_part_bfs(tree, dec.part_of, sorted(anchors.intersection(part)) or [0])
            assert sorted(part_order) == list(part)
            order += part_order
        assert dec.order.tolist() == order


class TestViews:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_views_match_stored_fields(self, seed):
        tree, dec, _ = random_split(seed)
        assert [f.name for f in dataclasses.fields(dec)] == [
            "part_of", "cut_edges", "levels", "order"
        ]
        part_of = dec.part_of.tolist()
        assert dec.k == max(part_of) + 1
        assert [list(p) for p in dec.parts] == [
            [v for v in range(tree.n) if part_of[v] == idx] for idx in range(dec.k)
        ]
        assert list(dec.anchors) == sorted({x for e in dec.cut_edges for x in e})
        assert all(type(x) is int for p in dec.parts for x in p)
        assert all(type(x) is int for x in dec.anchors)


_CORRUPTED = """
import dataclasses
from rggembed import trees
from rggembed.decompose import Decomposition, check_decomposition, split_tree
import numpy as np

tree = trees.path_tree(10)
dec = split_tree(tree, None, 6.0, 2)
if dec.k < 2:
    raise SystemExit("the example needs a split with cut edges")
corrupted = [
    # one part holding every vertex, but the cut edges kept
    Decomposition(
        part_of=np.zeros(10, dtype=np.int64),
        cut_edges=dec.cut_edges,
        levels=dec.levels,
        order=dec.order,
    ),
    # the parts numbered 0, 2, 3, ...: label 1 is skipped
    dataclasses.replace(dec, part_of=np.where(dec.part_of > 0, dec.part_of + 1, 0)),
]
for bad in corrupted:
    try:
        check_decomposition(tree, None, 6.0, 2, bad)
    except AssertionError as exc:
        print("rejected:", exc)
    else:
        print("accepted")
"""


class TestCheckDecomposition:
    def test_rejects_single_part_with_cut_edges(self):
        tree = trees.path_tree(10)
        dec = split_tree(tree, None, 6.0, 2)
        bad = Decomposition(
            part_of=np.zeros(10, dtype=np.int64),
            cut_edges=dec.cut_edges,
            levels=dec.levels,
            order=dec.order,
        )
        with pytest.raises(AssertionError, match="k-1 cut edges"):
            check_decomposition(tree, None, 6.0, 2, bad)

    def test_rejects_disconnected_part(self):
        tree = trees.path_tree(6)
        # {0, 1, 2} and {3, 4, 5} relabelled as {0, 1, 5} and {2, 3, 4}
        bad = Decomposition(
            part_of=np.array([0, 0, 1, 1, 1, 0]),
            cut_edges=((1, 2),),
            levels=np.array([1, 0, 0, 1, 2, 3]),
            order=np.array([1, 0, 5, 2, 3, 4]),
        )
        with pytest.raises(AssertionError, match="part 0 is not connected"):
            check_decomposition(tree, None, 4.0, 2, bad)

    def test_rejects_part_of_skipping_a_label(self):
        tree = trees.path_tree(10)
        dec = split_tree(tree, None, 6.0, 2)
        check_decomposition(tree, None, 6.0, 2, dec)
        bad = dataclasses.replace(dec, part_of=np.where(dec.part_of > 0, dec.part_of + 1, 0))
        with pytest.raises(AssertionError, match="part_of does not label every vertex"):
            check_decomposition(tree, None, 6.0, 2, bad)

    def test_rejects_under_optimize_flag(self):
        # the checker must not be a chain of bare asserts, which -O strips
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", _CORRUPTED],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert len(lines) == 2, out.stdout
        assert lines[0].startswith("rejected: expected k-1 cut edges"), out.stdout
        assert lines[1].startswith("rejected: part_of does not label every vertex"), out.stdout
