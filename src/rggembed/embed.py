"""The two-step tree embedding algorithm, its validator, and the 1-d greedy.

``embed_tree`` splits the tree into parts of comparable size, then embeds
the parts one by one, each in the order the split computed for it: BFS
from its sorted anchors, level by level.  Each part picks as target the
earliest cell in the tessellation ordering that still has an unoccupied
point.  A part whose target is the central cell is embedded entirely
inside it.  Otherwise Step 1 places the vertices at anchor-distance j
(j = 0..eta) on unoccupied red points of transit ball j for that target,
walking the part from the cube centre out to the target; Step 2 places the
remaining vertices on unoccupied points of the target cell and, if those
run out, on unoccupied blue points of its adjacent successor.  Running out
of points anywhere is a structured FAILURE, not an exception.

Success implies a valid embedding: before doing anything else the algorithm
checks the two geometric facts the placement rules rely on, namely that any
two points in a cell-successor pair are within the connection radius
(2 sqrt(d)/s <= r) and that consecutive transit balls are within reach
(max ball gap <= r).  Every edge of the tree then maps to a graph edge by
construction; ``verify_embedding`` re-checks this independently with direct
distance computations.

Called with ``balls=None`` (simulation mode), Step 1 drops the transit
balls, whose size ignores r: all anchors meet in a hub of red points within
r/2 of the cube centre, and the vertices between an anchor and its part's
cells walk out on red points (see ``_HubTransit``).  That path carries no
proof; each of its rules is checked on the actual points and reported as a
structured failure when it does not hold.  Its ``diagnostics`` carry the
hub's supply and demand (``hub_available``, ``hub_demanded``) and, on a
success, the number of walked vertices (``walked``); every success also
reports ``max_blue_overflow``, the most blue points one successor cell lent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from ._bfs import bfs
from .geometry import BallSystem, Tessellation
from .rgg import ColorAssignment, GeometricGraph, PointSet
from .trees import Tree, adjacency_arrays, tree_graph
from .decompose import Decomposition, split_tree


@dataclass(frozen=True)
class FailureInfo:
    """Where the algorithm ran out of points (or of geometric headroom)."""

    iteration: int        # part index t, 1-based; 0 for pre-loop failures
    step: int             # 0 geometry precheck, 1 transit, 2 cell fill
    resource: str         # "geometry" | "ball" | "hub" | "walk" | "cell+successor"
                          # | "central-cell" | "line-window"
    resource_id: tuple | int | None
    demanded: float
    available: float
    message: str


@dataclass
class Embedding:
    """Vertex -> point map (-1 while unassigned) plus failure diagnostics."""

    map: np.ndarray
    status: str                      # "success" | "failure"
    failure: FailureInfo | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "success"


class _PointPools:
    """Occupancy bookkeeping: per-cell, per-cell-blue and per-ball id pools.

    Each pool is an ascending id array consumed through a pointer: a take
    scans the pool from its pointer, keeps the first ``want`` unoccupied
    ids, and leaves the pointer just past the last id taken, or at the end
    when it fell short.  Every id before the pointer is occupied, so no take
    ever looks at it again.  Each pool lies inside one cell.
    """

    def __init__(self, points: PointSet, colors: ColorAssignment, tess: Tessellation):
        n = points.n
        self.coords = points.coords
        self.blue = colors.blue
        self.cell_id = tess.cell_of_points(points.coords)
        order = np.lexsort((np.arange(n), self.cell_id))
        self.sorted_ids = order.astype(np.int64)
        self.cell_starts = np.searchsorted(
            self.cell_id[order], np.arange(tess.n_cells + 1)
        )
        self.occupied = np.zeros(n, dtype=bool)
        self.unocc = np.bincount(self.cell_id, minlength=tess.n_cells).astype(np.int64)
        self._any_ptr = self.cell_starts[:-1].copy()
        self._special: dict[tuple, np.ndarray] = {}   # lazily built id pools
        self._special_ptr: dict[tuple, int] = {}

    def occupy(self, pid: int) -> None:
        self.occupied[pid] = True
        self.unocc[self.cell_id[pid]] -= 1

    def occupy_many(self, pids: np.ndarray) -> None:
        """Mark distinct, unoccupied point ids occupied."""
        self.occupied[pids] = True
        self.unocc -= np.bincount(self.cell_id[pids], minlength=len(self.unocc))

    def cell_slice(self, cell: int) -> np.ndarray:
        return self.sorted_ids[self.cell_starts[cell] : self.cell_starts[cell + 1]]

    def _take(self, ids: np.ndarray, cell: int, want: int) -> tuple[np.ndarray, int]:
        """Take the first ``want`` unoccupied ids of ``ids`` (all in
        ``cell``); return them and how far the pointer moves."""
        if want <= 0:
            return ids[:0], 0
        free = np.flatnonzero(~self.occupied[ids])[:want]
        taken = ids[free]
        self.occupied[taken] = True
        self.unocc[cell] -= len(taken)
        return taken, free[-1] + 1 if len(free) == want else len(ids)

    def take_any_from_cell(self, cell: int, want: int) -> np.ndarray:
        ptr = self._any_ptr[cell]
        taken, step = self._take(self.sorted_ids[ptr : self.cell_starts[cell + 1]], cell, want)
        self._any_ptr[cell] = ptr + step
        return taken

    def _take_special(self, key: tuple, build, cell: int, want: int) -> np.ndarray:
        if key not in self._special:
            self._special[key] = build()
            self._special_ptr[key] = 0
        ptr = self._special_ptr[key]
        taken, step = self._take(self._special[key][ptr:], cell, want)
        self._special_ptr[key] = ptr + step
        return taken

    def take_blue_from_cell(self, cell: int, want: int) -> np.ndarray:
        def build():
            ids = self.cell_slice(cell)
            return ids[self.blue[ids]]

        return self._take_special(("blue", cell), build, cell, want)

    def take_red_from_ball(
        self, nu: int, j: int, centre: np.ndarray, rho: float, cell: int, want: int
    ) -> np.ndarray:
        def build():
            ids = self.cell_slice(cell)
            diff = self.coords[ids] - centre
            inside = np.einsum("ij,ij->i", diff, diff) <= rho**2
            return ids[inside & ~self.blue[ids]]

        return self._take_special(("ball", nu, j), build, cell, want)


def _part_schedules(decomp: Decomposition, eta: int):
    """Each part's BFS order from its sorted anchors, grouped by level.

    Yields, part by part, (level_groups, tail): ``level_groups[j]`` holds
    the level-j vertices for j <= eta and ``tail`` the deeper ones, all in
    BFS order.  These are slices of ``decomp.order``, where each part's run
    ascends by level.  An anchor-free part (single-part decomposition)
    routes everything through the tail.
    """
    order = decomp.order
    if not decomp.cut_edges:
        yield [order[:0]] * (eta + 1), order
        return
    # the (part, level) keys ascend along the order once levels past eta
    # are folded into eta + 1, the tail; one search gives every cut
    width = eta + 2
    keys = decomp.part_of[order] * width + np.minimum(decomp.levels[order], eta + 1)
    cuts = np.searchsorted(keys, np.arange(decomp.k * width + 1)).tolist()
    for a in range(0, decomp.k * width, width):
        bounds = cuts[a : a + width + 1]
        runs = [order[i:j] for i, j in zip(bounds[:-1], bounds[1:])]
        yield runs[:-1], runs[-1]


#: A walking vertex aims this fraction of r from its parent's point toward
#: the centre of its part's successor cell.
WALK_STEP = 0.6


class _HubTransit:
    """Simulation-mode Step 1: anchors meet in a hub, the rest walks out.

    The hub holds the red points nearest the cube centre, one per anchor, all
    within r/2 of it, so every cut edge (anchor to anchor) is within r.  An
    anchor takes the free hub point nearest to c(nu(target)) of its part.  A
    deeper vertex whose placed neighbours all reach the whole box
    target + nu(target) (every point of it within r) is left for Step 2,
    which fills that box.  Any other vertex at level j <= eta *walks*: it
    takes the free non-hub red point nearest to the goal WALK_STEP * r from
    its parent's point toward c(nu), and keeps it only if that point is
    within r of each placed neighbour (and reaches the box when a neighbour
    was left for Step 2).  Nothing here relies on a proof: every rule is
    checked on the actual points, and ``verify_embedding`` certifies the
    result.
    """

    def __init__(self, pools: _PointPools, tree: Tree, decomp: Decomposition,
                 tess: Tessellation, r: float):
        self.pools, self.tree, self.tess = pools, tree, tess
        self.levels = decomp.levels
        self.r, self.r2 = r, r * r
        self.step = WALK_STEP * r
        coords = pools.coords
        self.red = np.flatnonzero(~pools.blue)
        off = coords[self.red] - 0.5
        dist2 = np.einsum("ij,ij->i", off, off)
        # a hair inside r/2, so that rounding can never push two hub
        # points further apart than r
        self.demanded = len(decomp.anchors)
        self.available = int(np.count_nonzero(dist2 <= (0.5 * r * (1.0 - 1e-12)) ** 2))
        self.hub = self.red[np.argsort(dist2, kind="stable")[: self.demanded]]
        self._hub_coords = coords[self.hub]
        self._hub_used = np.zeros(len(self.hub), dtype=bool)
        self._red_index = None
        self.walked = 0

    def reserve(self) -> FailureInfo | None:
        """Take the hub points out of every other pool, or report the
        shortfall when fewer red points than anchors lie within r/2."""
        if self.available < self.demanded:
            return FailureInfo(
                iteration=0, step=1, resource="hub", resource_id=None,
                demanded=self.demanded, available=self.available,
                message=(
                    f"{self.demanded} anchors need as many red points within r/2 of "
                    f"the cube centre; {self.available} are there"
                ),
            )
        self.pools.occupy_many(self.hub)
        return None

    def _free_red_near(self, goal: np.ndarray) -> int:
        """The free red point nearest to ``goal`` (hub points are taken), or
        -1 when none is left."""
        if self._red_index is None:
            self._red_index = cKDTree(self.pools.coords[self.red])
        k = 16
        while len(self.red):
            k = min(k, len(self.red))
            _, idx = self._red_index.query(goal, k=k)
            near = self.red[np.atleast_1d(idx)]
            free = near[~self.pools.occupied[near]]
            if len(free):
                return int(free[0])
            if k == len(self.red):
                break
            k *= 8
        return -1

    def route(self, t: int, target: int, groups: list, tail: np.ndarray,
              mapping: np.ndarray) -> tuple[FailureInfo | None, np.ndarray]:
        """Place one part's anchors and walkers; return a failure or the
        vertices left for Step 2, in schedule order."""
        tess, coords = self.tess, self.pools.coords
        nu = int(tess.successor[target])
        aim = tess.centres[nu if nu >= 0 else target]
        # the box target + nu, widened by far more than rounding so that
        # "reaches" errs on the safe side
        half = 0.5 / tess.s + 1e-12
        lo = np.minimum(tess.centres[target], aim) - half
        hi = np.maximum(tess.centres[target], aim) + half

        def reaches_box(pid: int) -> bool:
            p = coords[pid]
            far = np.maximum(np.abs(p - lo), np.abs(p - hi))
            return float(far @ far) <= self.r2

        anchors = groups[0]
        if len(anchors):
            off = self._hub_coords - aim
            dist2 = np.einsum("ij,ij->i", off, off)
            dist2[self._hub_used] = np.inf
            near = np.argpartition(dist2, len(anchors) - 1)[: len(anchors)]
            near = near[np.lexsort((near, dist2[near]))]
            self._hub_used[near] = True
            mapping[anchors] = self.hub[near]

        indptr, indices, levels = self.tree.indptr, self.tree.indices, self.levels
        rest = np.concatenate(groups[1:] + [tail]).tolist()
        left: list[int] = []
        left_set: set[int] = set()
        level, level_left = -1, False
        for i, v in enumerate(rest):
            j = int(levels[v])
            if j != level:
                if level_left:
                    # a whole level went to Step 2, so every deeper vertex's
                    # placed neighbours are in the box too
                    left += rest[i:]
                    break
                level, level_left = j, True
            nbrs = indices[indptr[v] : indptr[v + 1]].tolist()
            placed = [(u, int(mapping[u])) for u in nbrs if mapping[u] >= 0]
            if all(reaches_box(p) for _, p in placed):
                left.append(v)
                left_set.add(v)
                continue
            level_left = False
            if j > tess.eta:
                return FailureInfo(
                    iteration=t, step=1, resource="walk", resource_id=(target, v),
                    demanded=j, available=tess.eta,
                    message=f"vertex {v} at level {j} > eta is still out of reach of its box",
                ), []
            # walk on from a placed neighbour one level up, if there is one
            parent = min(placed, key=lambda up: levels[up[0]])[1]
            src = coords[parent]
            way = aim - src
            dist = math.sqrt(float(way @ way))
            goal = src + way * min(1.0, self.step / dist) if dist > 0 else src
            pid = self._free_red_near(goal)
            if pid < 0:
                return FailureInfo(
                    iteration=t, step=1, resource="walk", resource_id=(target, v),
                    demanded=1, available=0, message="no free red point left to walk on",
                ), []
            # the validator's own arithmetic, so that the two always agree
            worst = max(float(np.dot(x, x)) for x in coords[[p for _, p in placed]] - coords[pid])
            if worst > self.r2:
                return FailureInfo(
                    iteration=t, step=1, resource="walk", resource_id=(target, v),
                    demanded=math.sqrt(worst), available=self.r,
                    message=f"nearest free red point to vertex {v}'s goal is out of reach",
                ), []
            if any(u in left_set for u in nbrs) and not reaches_box(pid):
                return FailureInfo(
                    iteration=t, step=1, resource="walk", resource_id=(target, v),
                    demanded=1, available=0,
                    message=f"vertex {v} has a Step-2 neighbour but does not reach its box",
                ), []
            mapping[v] = pid
            self.pools.occupy(pid)
            self.walked += 1
        return None, np.array(left, dtype=np.int64)


def _failed(mapping: np.ndarray, diagnostics: dict, failure: FailureInfo) -> Embedding:
    return Embedding(map=mapping, status="failure", failure=failure, diagnostics=diagnostics)


def embed_tree(
    tree: Tree,
    graph: GeometricGraph,
    colors: ColorAssignment,
    tess: Tessellation,
    balls: BallSystem | None,
    m: float,
    delta: int,
) -> Embedding:
    """Run the two-step embedding of ``tree`` into ``graph``.

    Requires one point per vertex and tree max degree at most delta; the
    split preconditions on (unit weights, m, delta) must hold.  Returns a total
    injective map on success and a structured FAILURE otherwise.  With
    ``balls=None`` Step 1 is the simulation-mode transit (``_HubTransit``)
    instead of the transit balls.
    """
    n = tree.n
    if graph.n != n:
        raise ValueError(f"need one point per vertex: {graph.n} points, {n} vertices")
    if n == 1:
        return Embedding(map=np.zeros(1, dtype=np.int64), status="success")
    if tree.max_degree() > delta:
        raise ValueError(f"tree max degree {tree.max_degree()} exceeds delta={delta}")

    d, s, r = tess.d, tess.s, graph.r
    diagnostics: dict = {"s": s, "eta": tess.eta, "m": m}
    if balls is not None:
        diagnostics["epsilon_eff"] = balls.epsilon_eff
    mapping = np.full(n, -1, dtype=np.int64)

    # geometric prechecks: everything the placement rules rely on to turn
    # co-location into adjacency.  Without them a "success" could contain
    # tree edges longer than r, so they fail loudly as a structured result.
    pair_reach = 2.0 * math.sqrt(d) / s
    if pair_reach > r:
        return _failed(mapping, diagnostics, FailureInfo(
            iteration=0, step=0, resource="geometry", resource_id=None,
            demanded=pair_reach, available=r,
            message=f"cell-successor reach 2*sqrt(d)/s = {pair_reach:.6g} exceeds r = {r:.6g}",
        ))
    if balls is not None:
        max_gap = balls.max_consecutive_gap()
        diagnostics["max_ball_gap"] = max_gap
        if max_gap > r:
            return _failed(mapping, diagnostics, FailureInfo(
                iteration=0, step=0, resource="geometry", resource_id=None,
                demanded=max_gap, available=r,
                message=f"worst consecutive ball gap {max_gap:.6g} exceeds r = {r:.6g}",
            ))

    decomp = split_tree(tree, None, m, delta)
    k = decomp.k
    diagnostics["k"] = k
    diagnostics["n_anchors"] = len(decomp.anchors)

    m_paper = n / (8 * d * s**d)
    canonical_m = math.isclose(m, m_paper, rel_tol=1e-9)
    if canonical_m and k > 8 * d * (delta + 1) * s**d:
        raise RuntimeError("part count exceeded the Case-1 bound")

    pools = _PointPools(graph.points, colors, tess)
    hub = None
    if balls is None:
        hub = _HubTransit(pools, tree, decomp, tess, r)
        diagnostics["hub_demanded"] = hub.demanded
        diagnostics["hub_available"] = hub.available
        failure = hub.reserve()
        if failure is not None:
            return _failed(mapping, diagnostics, failure)
    eta = tess.eta
    central = tess.central_cell
    order = tess.order
    cursor = 0
    targets: list[int] = []
    diagnostics["targets"] = targets
    blue_overflow: dict[int, int] = {}
    schedules = _part_schedules(decomp, eta)

    def assign(vertices: np.ndarray, pids: np.ndarray) -> None:
        mapping[vertices[: len(pids)]] = pids

    for t in range(1, k + 1):
        while cursor < tess.n_cells and pools.unocc[order[cursor]] == 0:
            cursor += 1
        if cursor == tess.n_cells and hub is None:
            raise RuntimeError("ran out of cells with vertices remaining")
        # with a hub, every cell can be full only once the parts left are
        # all anchors, which need no cell
        target = int(order[cursor]) if cursor < tess.n_cells else central
        targets.append(target)

        groups, tail = next(schedules)

        if hub is not None:
            failure, tail = hub.route(t, target, groups, tail, mapping)
            if failure is not None:
                return _failed(mapping, diagnostics, failure)
        elif target == central:
            tail = np.concatenate(groups + [tail])
        else:
            tb = balls.for_target(target)
            for j in range(eta + 1):
                group = groups[j]
                if not len(group):
                    continue
                got = pools.take_red_from_ball(
                    tb.nu_cell, j, tb.centres[j], tb.radius, int(tb.cells[j]), len(group)
                )
                assign(group, got)
                if len(got) < len(group):
                    return _failed(mapping, diagnostics, FailureInfo(
                        iteration=t, step=1, resource="ball", resource_id=(target, j),
                        demanded=len(group), available=len(got),
                        message=f"ball j={j} for target cell {target} ran out of red points",
                    ))

        got = pools.take_any_from_cell(target, len(tail))
        assign(tail, got)
        rest = tail[len(got) :]
        if len(rest) and target == central:
            return _failed(mapping, diagnostics, FailureInfo(
                iteration=t, step=2, resource="central-cell", resource_id=central,
                demanded=len(tail), available=len(got), message="central cell exhausted",
            ))
        if len(rest):
            nu = int(tess.successor[target])
            extra = pools.take_blue_from_cell(nu, len(rest))
            assign(rest, extra)
            blue_overflow[nu] = blue_overflow.get(nu, 0) + len(extra)
            if len(extra) < len(rest):
                return _failed(mapping, diagnostics, FailureInfo(
                    iteration=t, step=2, resource="cell+successor", resource_id=(target, nu),
                    demanded=len(tail), available=len(got) + len(extra),
                    message=f"cell {target} and blue points of successor {nu} exhausted",
                ))

    if int(pools.occupied.sum()) != n or int((mapping < 0).sum()):
        raise RuntimeError("occupancy does not match embedded count")
    if hub is not None:
        diagnostics["walked"] = hub.walked
    diagnostics["max_blue_overflow"] = max(blue_overflow.values(), default=0)
    if canonical_m and diagnostics["max_blue_overflow"] > 2 * d * m:
        # Case-2 bound: a cell is the successor of at most 2d cells
        raise RuntimeError("blue overflow exceeded Case-2 bound")
    return Embedding(map=mapping, status="success", diagnostics=diagnostics)


@dataclass(frozen=True)
class VerificationResult:
    """``violation`` is None when ``ok``, else the first problem found:

    - ``("length", len(map), n)``: the map does not have one entry per vertex;
    - ``("unassigned", v)``: vertex v maps to a negative id;
    - ``("point-range", v, p)``: vertex v maps to p >= the graph's point count;
    - ``("collision", u, v)``: u < v share a point;
    - ``("edge", u, v, dist)``: tree edge u < v maps to points ``dist`` > r apart.
    """

    ok: bool
    violation: tuple | None


def verify_embedding(tree: Tree, graph: GeometricGraph, embedding: Embedding) -> VerificationResult:
    """Independent validity check: total, injective, and every tree edge

    maps to points within distance r (direct computation, no spatial index).
    The first violation is reported, checked in this order: a map whose
    length is not n; the first unassigned vertex; the first vertex on a point
    id the graph does not have; the first two vertices on the lowest shared
    point; the first edge (u, v), u < v, in lexicographic order that is
    longer than r.
    """
    mapping = embedding.map
    if len(mapping) != tree.n:
        return VerificationResult(False, ("length", len(mapping), tree.n))
    unassigned = np.flatnonzero(mapping < 0)
    if len(unassigned):
        return VerificationResult(False, ("unassigned", int(unassigned[0])))
    outside = np.flatnonzero(mapping >= graph.n)
    if len(outside):
        v = int(outside[0])
        return VerificationResult(False, ("point-range", v, int(mapping[v])))
    values, counts = np.unique(mapping, return_counts=True)
    dup = np.flatnonzero(counts > 1)
    if len(dup):
        hits = np.flatnonzero(mapping == values[dup[0]])
        return VerificationResult(False, ("collision", int(hits[0]), int(hits[1])))

    tails, heads = adjacency_arrays(tree)
    forward = tails < heads
    tails, heads = tails[forward], heads[forward]
    coords = graph.points.coords
    r2 = graph.r**2
    diff = coords[mapping[tails]] - coords[mapping[heads]]
    dist2 = np.einsum("ij,ij->i", diff, diff)
    # The batched sum may round differently from a dot product in the last
    # bit, so it only screens: edges near or over r are re-tested one by one
    # with the dot product, which decides.
    for e in np.flatnonzero(dist2 > r2 * (1.0 - 1e-9)).tolist():
        d2 = float(np.dot(diff[e], diff[e]))
        if d2 > r2:
            return VerificationResult(False, ("edge", int(tails[e]), int(heads[e]), math.sqrt(d2)))
    return VerificationResult(True, None)


def greedy_line_embed(tree: Tree, graph: GeometricGraph) -> Embedding:
    """1-d greedy: BFS from vertex 0, each vertex onto the left-most
    unoccupied point within r of its parent's point (the root takes the
    left-most unoccupied point overall)."""
    if graph.d != 1:
        raise ValueError("greedy line embedding requires d = 1")
    n = tree.n
    if graph.n != n:
        raise ValueError(f"need one point per vertex: {graph.n} points, {n} vertices")

    xs = graph.points.coords[:, 0]
    by_x = np.lexsort((np.arange(n), xs))
    sorted_x = xs[by_x]
    r = graph.r

    # next-unoccupied-at-or-after pointer with path compression
    nxt = list(range(n + 1))

    def find(i: int) -> int:
        path = []
        while nxt[i] != i:
            path.append(i)
            i = nxt[i]
        for p in path:
            nxt[p] = i
        return i

    mapping = np.full(n, -1, dtype=np.int64)
    # BFS from vertex 0: each vertex is placed from its BFS parent's point,
    # in the order a queue would reach it
    order, pred, _ = bfs(tree_graph(tree), 0)
    root_pos = find(0)
    mapping[0] = by_x[root_pos]
    nxt[root_pos] = root_pos + 1
    for v in order[1:].tolist():
        u = int(pred[v])
        xu = xs[mapping[u]]
        lo = int(np.searchsorted(sorted_x, xu - r, side="left"))
        hi = int(np.searchsorted(sorted_x, xu + r, side="right")) - 1
        pos = find(lo)
        if pos > hi:
            return _failed(mapping, {}, FailureInfo(
                iteration=0, step=2, resource="line-window", resource_id=v,
                demanded=1, available=0,
                message=f"no unoccupied point within r of vertex {u}'s point for child {v}",
            ))
        mapping[v] = by_x[pos]
        nxt[pos] = pos + 1
    return Embedding(map=mapping, status="success")
