import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rggembed import geometry as G, rgg, trees
from rggembed import embed as E


def neighbours(tree, v):
    """The CSR row of v as a list."""
    return tree.indices[tree.indptr[v] : tree.indptr[v + 1]].tolist()


def make_star(n):
    """The star with centre 0 on n vertices."""
    return trees.Tree.from_edges(n, [(0, i) for i in range(1, n)])


def make_colors(blue_flags):
    return rgg.ColorAssignment(blue=np.asarray(blue_flags, dtype=bool), p_blue=0.5)


def planted_instance(all_centre_blue=False):
    """d=1, s=3 instance sized so a path on 12 vertices embeds exactly.

    Ten red points sit inside the collapsed centre ball (every transit ball
    of an s=3 line is the ball at the cube centre), one filler point in each
    outer cell.
    """
    tess = G.build_tessellation(1, 3)
    balls = G.BallSystem(tess, 0.5)
    centre = [0.5 + k * 1e-4 for k in range(-5, 5)]
    coords = np.array([[0.1]] + [[x] for x in centre] + [[0.9]])
    points = rgg.PointSet(d=1, coords=coords)
    blue = [True] + [all_centre_blue] * 10 + [True]
    colors = make_colors(blue)
    graph = rgg.build_graph(points, 0.7)
    tree = trees.path_tree(12)
    return tree, graph, colors, tess, balls


class TestEmbedTree:
    def test_single_vertex(self):
        tess = G.build_tessellation(1, 3)
        balls = G.BallSystem(tess, 0.5)
        points = rgg.PointSet(d=1, coords=np.array([[0.3]]))
        graph = rgg.build_graph(points, 0.2)
        colors = make_colors([False])
        result = E.embed_tree(trees.path_tree(1), graph, colors, tess, balls, 1.0, 3)
        assert result.ok and list(result.map) == [0]

    def test_planted_success_and_edge_validity(self):
        tree, graph, colors, tess, balls = planted_instance()
        result = E.embed_tree(tree, graph, colors, tess, balls, m=5.0, delta=3)
        assert result.ok, result.failure
        check = E.verify_embedding(tree, graph, result)
        assert check.ok
        # every tree edge maps to a graph edge
        for u, v in tree.edges():
            assert graph.has_edge(int(result.map[u]), int(result.map[v]))

    def test_empty_ball_gives_step1_failure(self):
        tree, graph, colors, tess, balls = planted_instance(all_centre_blue=True)
        result = E.embed_tree(tree, graph, colors, tess, balls, m=5.0, delta=3)
        assert not result.ok
        assert result.failure.step == 1
        assert result.failure.resource == "ball"
        target, j = result.failure.resource_id
        assert j == 0 and target == 0
        assert result.failure.available == 0

    def test_geometry_precheck_blocks_small_radius(self):
        tree, graph, colors, tess, balls = planted_instance()
        small = rgg.build_graph(graph.points, 0.2)  # below 2 sqrt(d)/s = 2/3
        result = E.embed_tree(tree, small, colors, tess, balls, m=5.0, delta=3)
        assert not result.ok
        assert result.failure.step == 0 and result.failure.resource == "geometry"

    def test_vertex_count_mismatch_rejected(self):
        tree, graph, colors, tess, balls = planted_instance()
        with pytest.raises(ValueError, match="one point per vertex"):
            E.embed_tree(trees.path_tree(5), graph, colors, tess, balls, 5.0, 3)

    def test_degree_violation_rejected(self):
        tree, graph, colors, tess, balls = planted_instance()
        star = make_star(12)
        with pytest.raises(ValueError, match="max degree"):
            E.embed_tree(star, graph, colors, tess, balls, 5.0, 3)

    def test_determinism(self):
        n = 3000
        eps = 4.9
        s = G.choose_odd_s(n, 1, 3, eps)
        tess = G.build_tessellation(1, s)
        balls = G.BallSystem(tess, eps)
        pts = rgg.sample_points(n, 1, 5)
        cols = rgg.color_points(pts, 0.5, 6)
        g = rgg.build_graph(pts, 6 * G.critical_radius(n, 1, 3))
        tree = trees.path_tree(n)
        a = E.embed_tree(tree, g, cols, tess, balls, 300.0, 3)
        b = E.embed_tree(tree, g, cols, tess, balls, 300.0, 3)
        assert a.status == b.status
        assert np.array_equal(a.map, b.map)

    def test_success_run_properties(self):
        # a comfortably feasible configuration: check occupancy conservation
        # and that the target sequence never moves backward in the ordering
        n, eps, m = 20000, 4.9, 500.0
        s = G.choose_odd_s(n, 1, 3, eps)
        tess = G.build_tessellation(1, s)
        balls = G.BallSystem(tess, eps)
        pts = rgg.sample_points(n, 1, 1)
        cols = rgg.color_points(pts, 0.5, 2)
        g = rgg.build_graph(pts, 6 * G.critical_radius(n, 1, 3))
        tree = trees.path_tree(n)
        result = E.embed_tree(tree, g, cols, tess, balls, m, 3)
        assert result.ok, result.failure
        assert len(np.unique(result.map)) == n  # total and injective
        positions = tess.position[np.array(result.diagnostics["targets"])]
        assert np.all(np.diff(positions) >= 0)
        assert E.verify_embedding(tree, g, result).ok

    def test_anchor_free_tree_fills_cells(self):
        # m >= total weight forces a single anchor-free part, which routes
        # through the cell-fill step and succeeds when one cell plus its
        # successor's blue points can hold everything
        tess = G.build_tessellation(1, 3)
        balls = G.BallSystem(tess, 0.5)
        coords = np.array([[0.05], [0.1], [0.15], [0.4]])
        points = rgg.PointSet(d=1, coords=coords)
        colors = make_colors([False, False, False, True])
        graph = rgg.build_graph(points, 0.7)
        tree = trees.path_tree(4)
        result = E.embed_tree(tree, graph, colors, tess, balls, m=10.0, delta=3)
        assert result.ok
        assert E.verify_embedding(tree, graph, result).ok


def test_part_schedules_match_per_part_bfs():
    # each part's BFS from its sorted anchors, run part by part as a loop;
    # every fifth tree is held in one anchor-free part
    from rggembed.decompose import split_tree

    rng = np.random.default_rng(4)
    for i in range(60):
        n, delta = int(rng.integers(2, 200)), int(rng.integers(3, 6))
        tree = trees.random_bounded_degree_tree(n, delta, i)
        m = float(max(n, delta + 1)) if i % 5 == 0 else float(rng.uniform(delta + 1, max(delta + 2, n)))
        dec = split_tree(tree, None, m, delta)
        eta = int(rng.integers(0, 5))
        anchors = set(dec.anchors)
        schedules = E._part_schedules(dec, eta)
        for idx, part in enumerate(dec.parts):
            groups, tail = next(schedules)
            groups, tail = [g.tolist() for g in groups], tail.tolist()
            sources = sorted(v for v in part if v in anchors) or [part[0]]
            order, dist, queue = [], dict.fromkeys(sources, 0), deque(sources)
            while queue:
                u = queue.popleft()
                order.append(u)
                for v in neighbours(tree, u):
                    if v not in dist and dec.part_of[v] == idx:
                        dist[v] = dist[u] + 1
                        queue.append(v)
            if not anchors:
                assert groups == [[]] * (eta + 1) and tail == order
                continue
            assert groups == [[v for v in order if dist[v] == j] for j in range(eta + 1)]
            assert tail == [v for v in order if dist[v] > eta]
        assert next(schedules, None) is None


def test_in_part_graph_built_once(monkeypatch):
    # the split's one BFS over the edges inside parts gives both the levels
    # and the placement order, so nothing builds that graph again
    from rggembed import decompose

    build, calls = decompose._anchor_graph, []

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(decompose, "_anchor_graph", counted)
    tree, graph, colors, tess, balls = planted_instance()
    result = E.embed_tree(tree, graph, colors, tess, balls, m=5.0, delta=3)
    assert result.diagnostics["k"] >= 2
    assert len(calls) == 1


class ScalarPools:
    """Reference for ``_PointPools``' pointer rule as plain loops: a pool is
    an ascending id list; a take walks it from the pointer, skips occupied
    ids and stops once it has ``want`` of them (or at the end)."""

    def __init__(self, pools):
        self.cell_id, self.blue, self.coords = pools.cell_id, pools.blue, pools.coords
        self.occupied, self.unocc = pools.occupied.copy(), pools.unocc.copy()
        self.lists, self.ptr = {}, {}

    def occupy(self, p):
        self.occupied[p] = True
        self.unocc[self.cell_id[p]] -= 1

    def take(self, key, keep, want):
        if key not in self.lists:
            self.lists[key] = [p for p in range(len(self.cell_id)) if keep(p)]
            self.ptr[key] = 0
        pool, ptr, taken = self.lists[key], self.ptr[key], []
        while ptr < len(pool) and len(taken) < want:
            if not self.occupied[pool[ptr]]:
                taken.append(pool[ptr])
                self.occupy(pool[ptr])
            ptr += 1
        self.ptr[key] = ptr
        return taken


@given(seed=st.integers(0, 10**6), d=st.integers(1, 2), s=st.sampled_from([3, 5]))
@settings(max_examples=60, deadline=None)
def test_bulk_pool_takes_match_scalar_reference(seed, d, s):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 300))
    tess = G.build_tessellation(d, s)
    points = rgg.sample_points(n, d, seed)
    pools = E._PointPools(points, rgg.color_points(points, 0.5, seed + 1), tess)
    for p in rng.choice(n, int(rng.integers(0, n)), replace=False).tolist():
        pools.occupy(p)
    ref = ScalarPools(pools)
    balls = [(nu, int(rng.integers(tess.n_cells)), tess.centres[int(rng.integers(tess.n_cells))],
              float(rng.uniform(0.1, 1.0)) / s) for nu in range(3)]
    for _ in range(40):
        kind, want = int(rng.integers(4)), int(rng.integers(0, 12))
        cell = int(rng.integers(tess.n_cells))
        if kind == 0:
            key = ("blue", cell)
            got = pools.take_blue_from_cell(cell, want)
            expect = ref.take(key, lambda p: ref.cell_id[p] == cell and ref.blue[p], want)
            ptr = pools._special_ptr[key]
        elif kind == 1:
            nu, cell, centre, rho = balls[int(rng.integers(len(balls)))]
            key = ("ball", nu, 0)
            got = pools.take_red_from_ball(nu, 0, centre, rho, cell, want)

            def inside(p):
                return (ref.cell_id[p] == cell and not ref.blue[p]
                        and sum((ref.coords[p] - centre) ** 2) <= rho**2)

            expect = ref.take(key, inside, want)
            ptr = pools._special_ptr[key]
        elif kind == 2:
            key = ("any", cell)
            got = pools.take_any_from_cell(cell, want)
            expect = ref.take(key, lambda p: ref.cell_id[p] == cell, want)
            ptr = pools._any_ptr[cell] - pools.cell_starts[cell]
        else:
            # a walker occupies a point behind every pool's back
            free = np.flatnonzero(~pools.occupied)
            if len(free):
                p = int(rng.choice(free))
                pools.occupy(p)
                ref.occupy(p)
            continue
        assert got.dtype == np.int64 and got.tolist() == expect
        assert ptr == ref.ptr[key]
        assert np.array_equal(pools.occupied, ref.occupied)
        assert np.array_equal(pools.unocc, ref.unocc)


class TestVerifyEmbedding:
    def _pair(self, gap, r):
        points = rgg.PointSet(d=1, coords=np.array([[0.25], [0.25 + gap]]))
        graph = rgg.build_graph(points, r)
        tree = trees.path_tree(2)
        emb = E.Embedding(map=np.array([0, 1]), status="success")
        return tree, graph, emb

    def test_closed_threshold(self):
        tree, graph, emb = self._pair(0.5, 0.5)
        assert E.verify_embedding(tree, graph, emb).ok

    def test_just_beyond_threshold(self):
        tree, graph, emb = self._pair(0.5 + 1e-9, 0.5 + 5e-10)
        check = E.verify_embedding(tree, graph, emb)
        assert not check.ok
        assert check.violation[0] == "edge" and check.violation[1:3] == (0, 1)

    def test_first_long_edge_in_edge_order(self):
        # edges (0,1) and (2,3) fit, (1,2) and (3,4) are too long: the
        # lexicographically first long edge is reported
        points = rgg.PointSet(d=1, coords=np.array([[0.0], [0.1], [0.5], [0.6], [1.0]]))
        graph = rgg.build_graph(points, 0.2)
        emb = E.Embedding(map=np.arange(5), status="success")
        check = E.verify_embedding(trees.path_tree(5), graph, emb)
        assert check.violation[:3] == ("edge", 1, 2)
        assert check.violation[3] == pytest.approx(0.4)

    def test_matches_reference_loop(self):
        # one dot product per edge in (u, v) order, as a plain loop
        def reference(tree, graph, mapping):
            if (mapping < 0).any():
                return ("unassigned", int(np.flatnonzero(mapping < 0)[0]))
            values, counts = np.unique(mapping, return_counts=True)
            if (counts > 1).any():
                hits = np.flatnonzero(mapping == values[counts > 1][0])
                return ("collision", int(hits[0]), int(hits[1]))
            for u, v in tree.edges():
                diff = graph.points.coords[mapping[u]] - graph.points.coords[mapping[v]]
                if float(np.dot(diff, diff)) > graph.r**2:
                    return ("edge", u, v, math.sqrt(float(np.dot(diff, diff))))
            return None

        rng = np.random.default_rng(8)
        for i in range(150):
            n, d = int(rng.integers(2, 120)), int(rng.integers(1, 4))
            graph = rgg.build_graph(rgg.sample_points(n, d, i), float(rng.uniform(0.1, 1.0)))
            tree = trees.uniform_random_tree(n, i)
            mapping = rng.permutation(n)
            if i % 3 == 1:
                mapping[rng.integers(n)] = -1
            elif i % 3 == 2:
                a, b = rng.choice(n, 2, replace=False)
                mapping[a] = mapping[b]
            emb = E.Embedding(map=mapping, status="success")
            assert E.verify_embedding(tree, graph, emb).violation == reference(tree, graph, mapping)

    def test_malformed_maps_are_violations(self):
        points = rgg.PointSet(d=1, coords=np.array([[0.1], [0.2], [0.3], [0.4]]))
        graph = rgg.build_graph(points, 0.5)
        tree = trees.path_tree(4)
        cases = {
            (0, 1, 2, 7): ("point-range", 3, 7),
            (0, 4, 2, 3): ("point-range", 1, 4),
            (0, 1, 2): ("length", 3, 4),
            (0, 1, 2, 3, 4): ("length", 5, 4),
        }
        for mapping, violation in cases.items():
            emb = E.Embedding(map=np.array(mapping), status="success")
            check = E.verify_embedding(tree, graph, emb)
            assert not check.ok and check.violation == violation

    def test_collision_and_unassigned(self):
        points = rgg.PointSet(d=1, coords=np.array([[0.1], [0.2], [0.3]]))
        graph = rgg.build_graph(points, 0.5)
        tree = trees.path_tree(3)
        dup = E.Embedding(map=np.array([0, 0, 1]), status="success")
        assert E.verify_embedding(tree, graph, dup).violation[0] == "collision"
        partial = E.Embedding(map=np.array([0, -1, 1]), status="success")
        assert E.verify_embedding(tree, graph, partial).violation[0] == "unassigned"


def reference_greedy(tree, xs, r):
    """The 1-d greedy as a plain queue BFS from vertex 0: each child takes
    the left-most free point (by x, then id) within r of its parent's point.
    Returns the map and the vertex that found no point (None on success)."""
    by_x = sorted(range(len(xs)), key=lambda p: (xs[p], p))
    free = [True] * len(xs)
    mapping = [-1] * tree.n

    def take(lo, hi):
        for pos, p in enumerate(by_x):
            if free[pos] and lo <= xs[p] <= hi:
                free[pos] = False
                return p
        return -1

    mapping[0] = take(-math.inf, math.inf)
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in neighbours(tree, u):
            if mapping[v] >= 0:
                continue
            mapping[v] = take(xs[mapping[u]] - r, xs[mapping[u]] + r)
            if mapping[v] < 0:
                return mapping, v
            queue.append(v)
    return mapping, None


class TestGreedyLineEmbed:
    def test_path_in_order(self):
        points = rgg.PointSet(d=1, coords=np.array([[0.1], [0.2], [0.3]]))
        graph = rgg.build_graph(points, 0.15)
        result = E.greedy_line_embed(trees.path_tree(3), graph)
        assert result.ok and list(result.map) == [0, 1, 2]

    def test_star_in_tight_cluster(self):
        points = rgg.PointSet(d=1, coords=np.array([[0.5], [0.51], [0.52], [0.53]]))
        graph = rgg.build_graph(points, 0.1)
        star = make_star(4)
        result = E.greedy_line_embed(star, graph)
        assert result.ok
        assert E.verify_embedding(star, graph, result).ok

    def test_failure_when_window_exhausted(self):
        points = rgg.PointSet(d=1, coords=np.array([[0.1], [0.11], [0.5], [0.9]]))
        graph = rgg.build_graph(points, 0.05)
        result = E.greedy_line_embed(make_star(4), graph)
        assert not result.ok
        assert result.failure.resource == "line-window"

    def test_random_successes_validate(self):
        wins = 0
        for seed in range(30):
            pts = rgg.sample_points(256, 1, seed)
            g = rgg.build_graph(pts, 0.2)
            tree = trees.uniform_random_tree(256, seed + 500)
            result = E.greedy_line_embed(tree, g)
            if result.ok:
                wins += 1
                assert E.verify_embedding(tree, g, result).ok
        assert wins > 0

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 120), c=st.floats(0.5, 4.0))
    @settings(max_examples=80, deadline=None)
    def test_matches_queue_reference(self, seed, n, c):
        pts = rgg.sample_points(n, 1, seed)
        g = rgg.build_graph(pts, min(c * n**-0.5, 1.0))
        tree = trees.uniform_random_tree(n, seed + 1) if n > 1 else trees.path_tree(1)
        result = E.greedy_line_embed(tree, g)
        expected_map, failed_at = reference_greedy(tree, pts.coords[:, 0], g.r)
        assert result.map.tolist() == expected_map
        assert (result.failure.resource_id if result.failure else None) == failed_at

    def test_requires_1d(self):
        pts = rgg.sample_points(4, 2, 0)
        g = rgg.build_graph(pts, 0.5)
        with pytest.raises(ValueError, match="d = 1"):
            E.greedy_line_embed(trees.path_tree(4), g)


@pytest.mark.slow
def test_soundness_mini_batch():
    # varied trials, most below the workstation feasibility window (failures
    # expected) plus a handful inside it; every success must pass the
    # independent validator
    rng = np.random.default_rng(99)
    successes = 0
    configs = []
    for _ in range(40):
        configs.append(
            dict(
                n=int(rng.integers(500, 4000)),
                eps=float(rng.choice([0.5, 2.0, 4.9])),
                mult=float(rng.choice([0.5, 2.0, 4.0, 6.0])),
                m=None,
                family=str(rng.choice(["path", "bounded"])),
            )
        )
    for _ in range(8):
        configs.append(
            dict(n=int(rng.integers(18000, 26000)), eps=4.9, mult=6.0, m=500.0, family="path")
        )
    for cfg in configs:
        n, delta = cfg["n"], 3
        try:
            s = G.choose_odd_s(n, 1, delta, cfg["eps"])
        except G.GeometryInfeasible:
            continue
        tess = G.build_tessellation(1, s)
        balls = G.BallSystem(tess, cfg["eps"])
        pts = rgg.sample_points(n, 1, int(rng.integers(1 << 32)))
        cols = rgg.color_points(pts, 0.5, int(rng.integers(1 << 32)))
        r = min(cfg["mult"] * G.critical_radius(n, 1, delta), 1.0)
        g = rgg.build_graph(pts, r)
        tree = (
            trees.path_tree(n)
            if cfg["family"] == "path"
            else trees.random_bounded_degree_tree(n, delta, int(rng.integers(1 << 32)))
        )
        m = cfg["m"] if cfg["m"] else float(rng.uniform(delta + 1, n / 2))
        result = E.embed_tree(tree, g, cols, tess, balls, m, delta)
        if result.ok:
            successes += 1
            assert E.verify_embedding(tree, g, result).ok
        else:
            assert result.failure is not None
            assert result.failure.step in (0, 1, 2)
    assert successes >= 4
