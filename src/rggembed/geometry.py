"""Threshold quantities and tessellation geometry for the unit cube.

The connection radius at which a random geometric graph on n uniform points
in [0,1]^d starts to contain every n-vertex tree of maximum degree Delta is

    r_c(n, d, Delta) = sqrt(d) * ln(Delta - 1) / (2 * ln(n)),

and the embedding pipeline built on top of it works at radii
r >= (1 + eps) * r_c with

    eps(n, d, Delta) = 100 * d * ln(Delta * ln(n)) / ln(n).

All logarithms are natural.  The ratio defining r_c is base-invariant, eps
is not; the inner log makes eps large (well above the ball-feasibility
limit of 5) for every n a workstation can handle, so the rest of the module
accepts an explicit ``epsilon_eff`` override and the experiment layer
defaults to ``min(eps, 0.5)`` in simulation mode.

The tessellation splits [0,1]^d into s^d closed cubic cells of side 1/s
(s odd), orders them by non-increasing distance from the cube centre, and
attaches to every non-central cell q an *adjacent successor* nu(q): the
neighbouring cell one step closer to the centre along the first coordinate
where q's centre disagrees with the central cell's.  Transit balls are small
balls spaced along the segment from the cube centre to c(nu(q)) that let a
subtree walk from the centre out to its target cell; they satisfy

    P1  every ball lies in a cell strictly later than q in the ordering,
    P2  the first ball lies in the central cell, the last in nu(q),
    P3  points in consecutive balls are within the connection radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryInfeasible",
    "Tessellation",
    "TransitBalls",
    "BallSystem",
    "critical_radius",
    "epsilon_param",
    "simulation_epsilon",
    "choose_odd_s",
    "build_tessellation",
    "verify_transit_balls",
]

#: Enclosing transit balls have radius epsilon_eff / (10 s); they only fit
#: strictly inside a cell of side 1/s when epsilon_eff < 5.
EPSILON_FEASIBILITY_LIMIT = 5.0


class GeometryInfeasible(ValueError):
    """A geometric construction has no valid output for these parameters."""

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


def _validate_threshold_args(n: int, d: int, delta: int) -> None:
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if n < 3:
        raise ValueError(f"n too small: need n >= 3, got {n}")
    if delta < 3:
        raise ValueError(f"degenerate degree: need delta >= 3, got {delta}")


def critical_radius(n: int, d: int, delta: int) -> float:
    """Sharp-threshold radius sqrt(d) * ln(delta - 1) / (2 * ln(n))."""
    _validate_threshold_args(n, d, delta)
    return math.sqrt(d) * math.log(delta - 1) / (2.0 * math.log(n))


def epsilon_param(n: int, d: int, delta: int) -> float:
    """Radius head-room 100 * d * ln(delta * ln(n)) / ln(n) (natural logs)."""
    _validate_threshold_args(n, d, delta)
    return 100.0 * d * math.log(delta * math.log(n)) / math.log(n)


def simulation_epsilon(n: int, d: int, delta: int, override: float | None = None) -> float:
    """Effective epsilon for simulation-scale runs.

    The exact formula exceeds the ball-feasibility limit for every
    workstation-scale n, so simulation mode caps it at 0.5 unless an explicit
    override is given.
    """
    if override is not None:
        if override <= 0:
            raise ValueError(f"epsilon_eff must be positive, got {override}")
        return float(override)
    return min(epsilon_param(n, d, delta), 0.5)


def _select_odd_s(s_lo: float, s_hi: float) -> int:
    """Pick the odd integer in [s_lo, s_hi] whose sqrt(d)/s value is closest
    to that of the interval midpoint; ties go to the smaller s.

    Raises GeometryInfeasible when no odd integer >= 3 lies in the interval.
    """
    lo = max(3, math.ceil(s_lo))
    hi = math.floor(s_hi)
    candidates = [s for s in range(lo, hi + 1) if s % 2 == 1]
    if not candidates:
        raise GeometryInfeasible(
            f"tessellation infeasible: no odd s >= 3 with s in [{s_lo:.6g}, {s_hi:.6g}]",
            s_lo=s_lo,
            s_hi=s_hi,
        )
    mid = 0.5 * (s_lo + s_hi)
    # distance measured on the 1/s scale; 1/x is strictly convex so exact
    # ties are essentially impossible, but break them toward smaller s anyway
    return min(candidates, key=lambda s: (abs(1.0 / s - 1.0 / mid), s))


def choose_odd_s(n: int, d: int, delta: int, epsilon_eff: float,
                 r_ref: float | None = None) -> int:
    """Odd cell count per axis with sqrt(d)/s inside the admissible window.

    The window is [ (1/3)(1 + eps/2) r_c, (1/2)(1 + 2 eps/3) r_c ]; among the
    odd integers whose sqrt(d)/s falls inside it, the one closest (on the
    sqrt(d)/s scale) to the window midpoint is returned, ties to smaller s.
    ``r_ref``, when given, takes the place of r_c in the window.
    """
    if epsilon_eff <= 0:
        raise ValueError(f"epsilon_eff must be positive, got {epsilon_eff}")
    r_c = critical_radius(n, d, delta) if r_ref is None else r_ref
    sd = math.sqrt(d)
    s_lo = 2.0 * sd / ((1.0 + 2.0 * epsilon_eff / 3.0) * r_c)
    s_hi = 3.0 * sd / ((1.0 + epsilon_eff / 2.0) * r_c)
    return _select_odd_s(s_lo, s_hi)


@dataclass(frozen=True)
class Tessellation:
    """Grid of s^d closed cubic cells of side 1/s, with ordering and successors.

    Cells are identified by the C-order ravel of their integer grid
    coordinates, so ascending cell id is ascending lexicographic order on the
    coordinates.  ``order[k]`` is the id of the (k+1)-th cell in the
    centre-distance ordering; ``position[c]`` is the inverse permutation.
    ``successor[c]`` is the adjacent successor's id (-1 for the central cell).
    """

    d: int
    s: int
    eta: int
    centres: np.ndarray          # (s^d, d) cell centres
    order: np.ndarray            # (s^d,) cell ids, farthest-from-centre first
    position: np.ndarray         # (s^d,) rank of each cell in `order`
    successor: np.ndarray        # (s^d,) cell id of nu(q); -1 for central

    @property
    def n_cells(self) -> int:
        return self.s**self.d

    @property
    def central_cell(self) -> int:
        return int(self.order[-1])

    def grid_coords(self, cell: int | np.ndarray) -> np.ndarray:
        return np.stack(np.unravel_index(cell, (self.s,) * self.d), axis=-1)

    def cell_of_points(self, coords: np.ndarray) -> np.ndarray:
        """Cell id per point; boundary coordinates map to the lower cell,
        i.e. axis index min(floor(x * s), s - 1)."""
        idx = np.minimum((coords * self.s).astype(np.int64), self.s - 1)
        return np.ravel_multi_index(tuple(idx.T), (self.s,) * self.d)

    def cell_bounds(self, cell: int) -> tuple[np.ndarray, np.ndarray]:
        g = self.grid_coords(cell).astype(float)
        return g / self.s, (g + 1.0) / self.s


def build_tessellation(d: int, s: int) -> Tessellation:
    """Build the cell grid, the centre-distance ordering and the successor map.

    Ordering is by non-increasing distance from the cube centre, ties broken
    by ascending lexicographic grid coordinates; the central cell comes last.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if s < 3 or s % 2 == 0:
        raise ValueError(f"s must be an odd integer >= 3, got {s}")

    n_cells = s**d
    grids = np.stack(
        np.unravel_index(np.arange(n_cells), (s,) * d), axis=-1
    ).astype(np.int64)
    centres = (grids + 0.5) / s

    # centre offsets in units of 1/(2s) are the integers 2g + 1 - s, so the
    # squared distances compare exactly and symmetric cells tie for real
    dist2 = np.sum((2 * grids + 1 - s) ** 2, axis=1)
    order = np.lexsort((np.arange(n_cells), -dist2))
    position = np.empty(n_cells, dtype=np.int64)
    position[order] = np.arange(n_cells)

    mid = (s - 1) // 2
    off_centre = grids != mid
    # first coordinate where the cell centre disagrees with the cube centre
    first_diff = np.argmax(off_centre, axis=1)
    is_central = ~off_centre.any(axis=1)

    succ_grids = grids.copy()
    rows = np.arange(n_cells)
    step = np.where(grids[rows, first_diff] < mid, 1, -1)
    succ_grids[rows, first_diff] += step
    successor = np.ravel_multi_index(tuple(succ_grids.T), (s,) * d)
    successor[is_central] = -1

    return Tessellation(
        d=d,
        s=s,
        eta=math.ceil(s / 4),
        centres=centres,
        order=order,
        position=position,
        successor=successor,
    )


@dataclass(frozen=True)
class TransitBalls:
    """The eta+1 balls routing a subtree from the cube centre to a target cell.

    Ball j sits on the segment from the cube centre to c(nu(target)), as close
    as cell walls allow to the fraction j/eta of the way along it, and has
    radius 2^-d * epsilon_eff / (10 s).  ``cells[j]`` is the cell containing
    ball j and ``in_enclosing[j]`` records whether the ball stayed inside the
    ideal enclosing ball of radius epsilon_eff / (10 s) (it can be pushed out
    when the segment grazes a cell corner; see ``_segment_ball_positions``).
    """

    target_cell: int
    nu_cell: int
    centres: np.ndarray        # (eta+1, d)
    radius: float
    cells: np.ndarray          # (eta+1,) containing cell ids
    in_enclosing: np.ndarray   # (eta+1,) bool

    @property
    def eta(self) -> int:
        return len(self.centres) - 1

    def consecutive_gaps(self) -> np.ndarray:
        """Upper bound on ||x - y|| over x in ball j, y in ball j+1."""
        steps = np.linalg.norm(np.diff(self.centres, axis=0), axis=1)
        return steps + 2.0 * self.radius

    def max_gap(self) -> float:
        return float(self.consecutive_gaps().max())


def _segment_ball_positions(
    tess: Tessellation, nu_cell: int, epsilon_eff: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centres, containing cells and enclosing flags for one nu-direction.

    The ideal centre of ball j is a + (j/eta) * (b - a) with a the cube centre
    and b = c(nu).  When a ball of radius rho does not fit inside a single
    cell there (the segment may pass exactly through a cell corner too skewed
    for the pigeonhole argument to work), the centre slides along the segment
    to the nearest parameter where it does fit; the flag records whether the
    slide stayed within the enclosing radius epsilon_eff/(10 s) - rho of the
    ideal point.
    """
    d, s, eta = tess.d, tess.s, tess.eta
    rho = epsilon_eff / (10.0 * s) / (2.0**d)
    big_r = epsilon_eff / (10.0 * s)

    a = [0.5] * d
    b = [float(x) for x in tess.centres[nu_cell]]
    v = [bk - ak for ak, bk in zip(a, b)]
    length = math.sqrt(sum(x * x for x in v))

    if length == 0.0:
        # nu is the central cell itself; every ball collapses onto the centre
        centres = np.full((eta + 1, d), 0.5)
        cells = np.full(eta + 1, tess.central_cell, dtype=np.int64)
        flags = np.ones(eta + 1, dtype=bool)
        return centres, cells, flags

    # split [0,1] into the parameter intervals where the segment stays in one
    # cell, then shrink each by the wall clearance rho
    crossings = [0.0, 1.0]
    for k in range(d):
        if v[k] == 0.0:
            continue
        lo_wall = math.ceil(min(a[k], b[k]) * s)
        hi_wall = math.floor(max(a[k], b[k]) * s)
        for w in range(lo_wall, hi_wall + 1):
            t = (w / s - a[k]) / v[k]
            if 0.0 < t < 1.0:
                crossings.append(t)
    crossings = sorted(set(crossings))

    shape = (s,) * d
    feasible: list[tuple[float, float, int]] = []
    for t0, t1 in zip(crossings[:-1], crossings[1:]):
        if t1 - t0 <= 0.0:
            continue
        tm = 0.5 * (t0 + t1)
        grid = [min(int((a[k] + tm * v[k]) * s), s - 1) for k in range(d)]
        t_lo, t_hi = t0, t1
        for k in range(d):
            lo_k, hi_k = grid[k] / s, (grid[k] + 1) / s
            if v[k] == 0.0:
                if not (lo_k + rho <= a[k] <= hi_k - rho):
                    t_lo, t_hi = 1.0, 0.0
                    break
                continue
            c0 = (lo_k + rho - a[k]) / v[k]
            c1 = (hi_k - rho - a[k]) / v[k]
            if c0 > c1:
                c0, c1 = c1, c0
            t_lo = max(t_lo, c0)
            t_hi = min(t_hi, c1)
        if t_lo <= t_hi:
            cell = int(np.ravel_multi_index(tuple(grid), shape))
            feasible.append((t_lo, t_hi, cell))

    if not feasible:
        raise GeometryInfeasible(
            "no cell along the transit segment can hold a ball of radius "
            f"{rho:.3g}",
            nu_cell=nu_cell,
            epsilon_eff=epsilon_eff,
        )

    centres = np.empty((eta + 1, d))
    cells = np.empty(eta + 1, dtype=np.int64)
    flags = np.empty(eta + 1, dtype=bool)
    slack = (big_r - rho) / length
    for j in range(eta + 1):
        ideal = j / eta
        # nearest feasible parameter; ties toward smaller t
        best = None
        for t_lo, t_hi, cell in feasible:
            t = min(max(ideal, t_lo), t_hi)
            key = (abs(t - ideal), t)
            if best is None or key < best[0]:
                best = (key, t, cell)
        t_star, cell_star = best[1], best[2]
        for k in range(d):
            centres[j, k] = a[k] + t_star * v[k]
        cells[j] = cell_star
        flags[j] = abs(t_star - ideal) <= slack + 1e-12
    return centres, cells, flags


class BallSystem:
    """Transit balls for every possible target cell of one tessellation.

    Ball geometry depends on the target only through nu(target), so the
    per-direction construction is cached.  ``max_consecutive_gap`` is the
    worst P3 gap over all directions; the embedding algorithm compares it to
    the connection radius once instead of checking every target separately.
    """

    def __init__(self, tess: Tessellation, epsilon_eff: float):
        if epsilon_eff <= 0:
            raise ValueError(f"epsilon_eff must be positive, got {epsilon_eff}")
        if epsilon_eff >= EPSILON_FEASIBILITY_LIMIT:
            raise GeometryInfeasible(
                f"ball construction infeasible at epsilon_eff={epsilon_eff:.6g} "
                f">= {EPSILON_FEASIBILITY_LIMIT}; use an epsilon override",
                epsilon_eff=epsilon_eff,
            )
        self.tess = tess
        self.epsilon_eff = float(epsilon_eff)
        self.radius = epsilon_eff / (10.0 * tess.s) / (2.0**tess.d)
        self._by_nu: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._max_gap: float | None = None

    def for_target(self, target_cell: int) -> TransitBalls:
        tess = self.tess
        if target_cell == tess.central_cell:
            raise ValueError("the central cell has no transit balls")
        nu = int(tess.successor[target_cell])
        if nu not in self._by_nu:
            self._by_nu[nu] = _segment_ball_positions(tess, nu, self.epsilon_eff)
        centres, cells, flags = self._by_nu[nu]
        return TransitBalls(
            target_cell=int(target_cell),
            nu_cell=nu,
            centres=centres,
            radius=self.radius,
            cells=cells,
            in_enclosing=flags,
        )

    def distinct_nu_cells(self) -> np.ndarray:
        succ = self.tess.successor
        return np.unique(succ[succ >= 0])

    def max_consecutive_gap(self) -> float:
        """Worst P3 gap over all successor directions.

        Segment geometry is invariant under axis permutations and per-axis
        reflections about the cube centre, so directions are deduplicated by
        the sorted absolute grid displacement of nu from the central cell.
        """
        if self._max_gap is None:
            tess = self.tess
            mid = (tess.s - 1) // 2
            reps: dict[tuple, int] = {}
            for nu in self.distinct_nu_cells():
                disp = tess.grid_coords(int(nu)) - mid
                key = tuple(sorted(abs(int(x)) for x in np.atleast_1d(disp)))
                reps.setdefault(key, int(nu))
            worst = 0.0
            for nu in reps.values():
                centres, _, _ = self._by_nu.setdefault(
                    nu, _segment_ball_positions(tess, nu, self.epsilon_eff)
                )
                steps = np.linalg.norm(np.diff(centres, axis=0), axis=1)
                gap = float(steps.max()) + 2.0 * self.radius if len(steps) else 2.0 * self.radius
                worst = max(worst, gap)
            self._max_gap = worst
        return self._max_gap


@dataclass(frozen=True)
class BallCheck:
    p1: bool
    p2: bool
    p3: bool
    max_gap: float
    all_in_enclosing: bool


def verify_transit_balls(tess: Tessellation, balls: TransitBalls, r: float) -> BallCheck:
    """Direct check of P1 (later cells), P2 (endpoints) and P3 (reach at r)."""
    pos_target = tess.position[balls.target_cell]
    inside_one_cell = True
    for j in range(balls.eta + 1):
        lo, hi = tess.cell_bounds(int(balls.cells[j]))
        c = balls.centres[j]
        if not (np.all(c - balls.radius >= lo - 1e-12) and np.all(c + balls.radius <= hi + 1e-12)):
            inside_one_cell = False
    p1 = inside_one_cell and bool(np.all(tess.position[balls.cells] > pos_target))
    p2 = (
        int(balls.cells[0]) == tess.central_cell
        and int(balls.cells[-1]) == balls.nu_cell
    )
    max_gap = balls.max_gap()
    return BallCheck(
        p1=p1,
        p2=p2,
        p3=max_gap <= r,
        max_gap=max_gap,
        all_in_enclosing=bool(balls.in_enclosing.all()),
    )
