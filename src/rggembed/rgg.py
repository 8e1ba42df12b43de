"""Random geometric graphs on the unit cube via a cell-list spatial index.

``sample_points`` draws n i.i.d. uniform points in [0,1]^d.  The exact edge
set of ``build_graph``'s graph (closed threshold, edge iff distance <= r) is
built only when a query first needs it.  The build buckets the points into a
grid of side >= r, so that all neighbours of a point lie in the 3^d
surrounding buckets (a fixed-radius cell list, Bentley, Stanat & Williams,
IPL 1977); one vectorised sweep per half-stencil bucket offset pairs every
point with the points of the neighbouring bucket and distance-tests the
candidates ``_BLOCK`` at a time, so beyond the kept edges the build needs
the working memory of one block.  Graph queries run on a symmetric CSR
adjacency with ascending rows; the one diameter query, ``hop_diameter``, is
an iFUB bracket lb <= D <= ub that runs until it is exact or until it
decides D against a given bound, one BFS source at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ._bfs import bfs


@dataclass(frozen=True)
class PointSet:
    """n points in [0,1]^d plus the seed they were drawn with."""

    d: int
    coords: np.ndarray  # (n, d) float64
    seed: object = None

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    def __post_init__(self):
        if self.coords.ndim != 2 or self.coords.shape[1] != self.d:
            raise ValueError(f"coords must have shape (n, {self.d})")
        if self.coords.size and (self.coords.min() < 0.0 or self.coords.max() > 1.0):
            raise ValueError("coordinates must lie in [0, 1]")


def sample_points(n: int, d: int, seed) -> PointSet:
    """n i.i.d. uniform points in [0,1]^d, deterministic per seed."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    rng = np.random.default_rng(seed)
    return PointSet(d=d, coords=rng.random((n, d)), seed=seed)


@dataclass(frozen=True)
class ColorAssignment:
    """Independent red/blue colours; blue with probability p_blue."""

    blue: np.ndarray  # (n,) bool
    p_blue: float
    seed: object = None


def color_points(points: PointSet, p_blue: float, seed) -> ColorAssignment:
    """Bernoulli(p_blue) colour per point, independent, deterministic per seed."""
    if not 0.0 <= p_blue <= 1.0:
        raise ValueError(f"p_blue must be in [0, 1], got {p_blue}")
    rng = np.random.default_rng(seed)
    return ColorAssignment(blue=rng.random(points.n) < p_blue, p_blue=p_blue, seed=seed)


# Candidate pairs distance-tested at once by the edge sweep.  A block's
# scratch is about 41 + 24*d bytes per candidate (2.9 MB in d=2), small
# enough to stay in cache; larger blocks measured no faster.
_BLOCK = 1 << 15


def _bucket_index(points: PointSet, r: float):
    """The cell list of ``points`` for radius r: grid side k (bucket side
    1/k >= r), each point's bucket id, the points sorted by bucket (stable)
    and each bucket's start in that order."""
    n, d = points.n, points.d
    # cap k so the grid never dwarfs the point count
    k_cap = int(math.ceil(n ** (1.0 / d))) + 1
    k = max(1, min(int(math.floor(1.0 / r)), k_cap))
    cell = np.minimum((points.coords * k).astype(np.int64), k - 1)
    bucket = np.ravel_multi_index(tuple(cell.T), (k,) * d)
    order = np.argsort(bucket, kind="stable")
    starts = np.searchsorted(bucket[order], np.arange(k**d + 1))
    return k, bucket, order, starts


class GeometricGraph:
    """G_d(n, r): edge iff Euclidean distance <= r (closed threshold).

    The constructor only checks r and keeps the points.  ``edges()`` builds
    the bucket index (``_bucket_index``), scans it block by block and keeps
    only the pairs within r; ``adjacency()`` turns the sorted edge list into
    a symmetric CSR matrix (float64 ones, int32 indices, ascending rows),
    built lazily and cached because several consumers (the embedding
    algorithm in particular) never look at edges.
    """

    def __init__(self, points: PointSet, r: float):
        if r <= 0:
            raise ValueError(f"need r > 0, got {r}")
        if r > math.sqrt(points.d) + 1e-12:
            raise ValueError(f"r = {r} exceeds the cube diameter sqrt(d)")
        self.points = points
        self.r = float(r)
        self._csr: sparse.csr_matrix | None = None

    @property
    def n(self) -> int:
        return self.points.n

    @property
    def d(self) -> int:
        return self.points.d

    def _edge_keys(self) -> np.ndarray:
        """Every edge once as the int64 key u*n + v with u < v, unsorted.

        Positions below index the points sorted by bucket.  For each offset
        of the half stencil (offsets >= 0 lexicographically, so each pair of
        adjacent buckets is visited once), the point at position q gets a
        row of partner positions: the points of bucket(q) + offset, or for
        the zero offset the points after q in its own bucket.  The rows are
        laid end to end through their cumulative lengths, and each block of
        candidates is cut from that sequence with repeat/cumsum arithmetic,
        so a block may start or end inside a row.
        """
        n, d = self.n, self.d
        k, bucket, order, starts = _bucket_index(self.points, self.r)
        coords = self.points.coords[order]
        bucket = bucket[order]
        sizes = np.diff(starts)
        cells = np.stack(np.unravel_index(np.arange(k**d), (k,) * d))
        pos = np.arange(n)
        r2 = self.r**2
        keys = [np.empty(0, dtype=np.int64)]
        for offset in np.ndindex(*(3,) * d):
            off = np.array(offset) - 1
            if tuple(off) < (0,) * d:
                continue  # mirrored by the opposite offset
            if not off.any():
                row_start = pos + 1
                row_len = starts[bucket + 1] - row_start
            else:
                nb = cells + off[:, None]
                inside = np.all((nb >= 0) & (nb < k), axis=0)
                dst = np.ravel_multi_index(tuple(np.clip(nb, 0, k - 1)), (k,) * d)
                row_start = starts[dst][bucket]
                row_len = np.where(inside, sizes[dst], 0)[bucket]
            ends = np.cumsum(row_len)
            # candidate t of row q pairs q with position t + shift[q]
            shift = row_start + row_len - ends
            total = int(ends[-1]) if n else 0
            for lo in range(0, total, _BLOCK):
                hi = min(lo + _BLOCK, total)
                q0 = np.searchsorted(ends, lo, side="right")
                q1 = np.searchsorted(ends, hi, side="left") + 1
                first = ends[q0] - row_len[q0]
                q = np.repeat(pos[q0:q1], row_len[q0:q1])[lo - first : hi - first]
                p = np.arange(lo, hi) + shift[q]
                diff = np.take(coords, q, axis=0) - np.take(coords, p, axis=0)
                keep = np.einsum("ij,ij->i", diff, diff) <= r2
                u, v = order[q[keep]], order[p[keep]]
                keys.append(np.minimum(u, v) * n + np.maximum(u, v))
        return np.concatenate(keys)

    def edges(self) -> np.ndarray:
        """(m, 2) int64 array of edges with u < v, sorted lexicographically."""
        keys = self._edge_keys()
        keys.sort()
        u = keys // max(self.n, 1)
        return np.stack([u, keys - u * self.n], axis=1)

    def adjacency(self) -> sparse.csr_matrix:
        """Symmetric CSR adjacency with float64 ones and int32 indices.

        Row x lists first the edges (u, x), then the edges (x, v); both
        runs ascend because ``edges()`` is sorted and the COO-to-CSR
        conversion keeps input order within a row, so no sort is needed.
        """
        if self._csr is None:
            e = self.edges().astype(np.int32)
            row = np.concatenate([e[:, 1], e[:, 0]])
            col = np.concatenate([e[:, 0], e[:, 1]])
            del e
            data = np.ones(len(row))
            self._csr = sparse.csr_matrix((data, (row, col)), shape=(self.n, self.n))
        return self._csr

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        diff = self.points.coords[u] - self.points.coords[v]
        return float(np.dot(diff, diff)) <= self.r**2


def build_graph(points: PointSet, r: float) -> GeometricGraph:
    """Bucket-indexed geometric graph with the exact threshold edge set."""
    return GeometricGraph(points, r)


def brute_force_edges(points: PointSet, r: float) -> np.ndarray:
    """All-pairs reference edge set; the oracle the bucket index is tested against."""
    x = points.coords
    d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
    u, v = np.where(np.triu(d2 <= r**2, k=1))
    e = np.stack([u, v], axis=1).astype(np.int64)
    return e[np.lexsort((e[:, 1], e[:, 0]))]


@dataclass(frozen=True)
class HopDiameter:
    """Certified bracket ``value <= D <= upper`` on the hop diameter D, both
    ends ``math.inf`` when the graph is disconnected."""

    value: float
    upper: float

    @property
    def exact(self) -> bool:
        return self.value == self.upper


def _decided(lb: float, ub: float, bound: float | None) -> bool:
    return lb == ub or (bound is not None and (lb > bound or ub <= bound))


def hop_diameter(graph: GeometricGraph, bound: float | None = None) -> HopDiameter:
    """iFUB bracket lb <= D <= ub (Crescenzi et al., TCS 2013), run until
    lb == ub or, given ``bound``, until lb > bound or ub <= bound.

    BFS from vertex 0 gives D <= 2 ecc(0) and a farthest vertex a (smallest
    id on ties); BFS from a gives lb = ecc(a).  BFS from u, the midpoint of
    a's BFS path to its farthest vertex, levels the graph; its vertices are
    then searched one source at a time, farthest level first and by
    ascending id.  Pairs with a searched vertex are within lb, and
    unsearched vertices at levels <= i within 2i of each other through u,
    so after each source ub = max(lb, 2i) for the level i of the next
    unsearched vertex.
    """
    adj = graph.adjacency()
    order, _, level = bfs(adj, 0)
    if len(order) < graph.n:
        return HopDiameter(math.inf, math.inf)
    ub = 2.0 * float(level.max())
    _, pred, level = bfs(adj, int(np.argmax(level)))
    lb = float(level.max())
    if not _decided(lb, ub, bound):
        u = int(np.argmax(level))
        for _ in range(int(lb) // 2):
            u = int(pred[u])
        level = bfs(adj, u)[2]
        ecc_u = float(level.max())
        lb, ub = max(lb, ecc_u), min(ub, 2.0 * ecc_u)
        by_level = np.argsort(-level, kind="stable")
        # the trailing level -1 makes ub = lb once every vertex is searched
        next_level = np.append(level[by_level[1:]], -1).tolist()
        for v, i in zip(by_level.tolist(), next_level):
            if _decided(lb, ub, bound):
                break
            lb = max(lb, float(bfs(adj, v)[2].max()))
            ub = min(ub, max(lb, 2.0 * i))
    if not lb <= ub:
        raise RuntimeError(f"diameter bracket inverted: lb = {lb} > ub = {ub}")
    return HopDiameter(lb, ub)
