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

``_ball_positions`` places the balls of many directions in one set of array
passes; ``BallSystem`` caches them per successor cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def central_cell(self) -> int:
        return int(self.order[-1])

    def grid_coords(self, cell: int | np.ndarray) -> np.ndarray:
        return np.stack(np.unravel_index(cell, (self.s,) * self.d), axis=-1)

    def cell_of_points(self, coords: np.ndarray) -> np.ndarray:
        """Cell id per point; boundary coordinates map to the lower cell,
        i.e. axis index min(floor(x * s), s - 1)."""
        idx = np.minimum((coords * self.s).astype(np.int64), self.s - 1)
        return np.ravel_multi_index(tuple(idx.T), (self.s,) * self.d)

    def cell_bounds(self, cell: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    when the segment grazes a cell corner; see ``_ball_positions``).
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

    def max_gap(self) -> float:
        """Upper bound on ||x - y|| over x in ball j, y in ball j+1, worst j."""
        steps = np.linalg.norm(np.diff(self.centres, axis=0), axis=1)
        return float(steps.max()) + 2.0 * self.radius


def _ball_positions(
    tess: Tessellation, nus, epsilon_eff: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centres (m, eta+1, d), containing cells and enclosing flags (m, eta+1)
    of the balls towards each of the m successor cells in ``nus``.

    The ideal centre of ball j is a + (j/eta) v with a the cube centre and
    v = c(nu) - a.  The wall crossings cut the parameter range [0, 1] into
    runs inside one cell each; shrunk by the wall clearance rho, a run holds
    the parameters where a ball of radius rho fits in its cell.  Each ball
    takes the nearest such parameter, ties toward smaller t, so it leaves its
    ideal point only where the segment grazes a cell corner too skewed for
    the pigeonhole argument; the flag records whether that slide stayed
    within the enclosing radius epsilon_eff/(10 s) - rho.  The first run
    always holds a ball: the cube centre is 1/(2s) > rho from every wall of
    the central cell.
    """
    d, s, eta = tess.d, tess.s, tess.eta
    rho = epsilon_eff / (10.0 * s) / (2.0**d)
    v = tess.centres[nus] - 0.5                     # (m, d)
    vt = v.T[:, :, None]                            # (d, m, 1): axis first
    length = sum(vt[k] * vt[k] for k in range(d))   # axis by axis, in order
    # An axis the segment does not move along divides by +0.0: its walls
    # fall off the segment, and its clearance bounds are -inf and +inf when
    # the cube centre keeps rho from that axis's walls, an empty range if not.
    with np.errstate(divide="ignore"):
        walls = (np.arange(s + 1) / s - 0.5) / v[:, :, None]
        t = np.ones((len(v), d * (s + 1) + 2))
        t[:, 0] = 0.0
        t[:, 1:-1] = np.where((walls > 0.0) & (walls < 1.0), walls, 1.0).reshape(len(v), -1)
        t.sort(axis=1)
        t0, t1 = t[:, :-1], t[:, 1:]
        grid = np.minimum(((0.5 + 0.5 * (t0 + t1) * vt) * s).astype(np.int64), s - 1)
        c0 = (grid / s + rho - 0.5) / vt
        c1 = ((grid + 1) / s - rho - 0.5) / vt
        slack = (epsilon_eff / (10.0 * s) - rho) / np.sqrt(length)
    t_lo = np.maximum(t0, np.minimum(c0, c1).max(axis=0))
    t_hi = np.minimum(t1, np.maximum(c0, c1).min(axis=0))
    feasible = (t1 > t0) & (t_lo <= t_hi)

    # the runs are sorted and disjoint, so the first nearest run is also the
    # one with the smaller parameter
    ideal = np.arange(eta + 1) / eta
    t_near = np.minimum(np.maximum(ideal[:, None], t_lo[:, None, :]), t_hi[:, None, :])
    gap = np.where(feasible[:, None, :], np.abs(t_near - ideal[:, None]), np.inf)
    rows, balls = np.arange(len(v))[:, None], np.arange(eta + 1)
    best = gap.argmin(axis=2)
    t_star = t_near[rows, balls, best]
    cells = np.ravel_multi_index(tuple(grid), (s,) * d)[rows, best]
    flags = np.abs(t_star - ideal) <= slack + 1e-12
    return 0.5 + t_star[..., None] * v[:, None, :], cells, flags


#: Directions placed by one ``_ball_positions`` call: at d=3, s=41 a batch of
#: all 1770 symmetry representatives peaks near 87 MiB, chunks near 15 MiB.
_CHUNK = 256


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
        self._build([nu])
        centres, cells, flags = self._by_nu[nu]
        return TransitBalls(
            target_cell=int(target_cell),
            nu_cell=nu,
            centres=centres,
            radius=self.radius,
            cells=cells,
            in_enclosing=flags,
        )

    def _build(self, nus: list[int]) -> None:
        """Place the balls of each direction in ``nus`` not yet cached."""
        todo = [nu for nu in nus if nu not in self._by_nu]
        for i in range(0, len(todo), _CHUNK):
            chunk = todo[i : i + _CHUNK]
            built = _ball_positions(self.tess, chunk, self.epsilon_eff)
            for nu, *arrays in zip(chunk, *built):
                self._by_nu[nu] = tuple(arrays)

    def distinct_nu_cells(self) -> np.ndarray:
        succ = self.tess.successor
        return np.unique(succ[succ >= 0])

    def max_consecutive_gap(self) -> float:
        """Worst P3 gap over all successor directions.

        Segment geometry is invariant under axis permutations and per-axis
        reflections about the cube centre, so directions are deduplicated by
        the sorted absolute grid displacement of nu from the central cell;
        the smallest id stands for its class.
        """
        if self._max_gap is None:
            tess = self.tess
            nus = self.distinct_nu_cells()
            key = np.sort(np.abs(tess.grid_coords(nus) - (tess.s - 1) // 2), axis=1)
            # one integer per key (base-s digits) sorts far faster than rows
            _, first = np.unique(key @ tess.s ** np.arange(tess.d), return_index=True)
            reps = nus[first].tolist()
            self._build(reps)
            centres = np.stack([self._by_nu[nu][0] for nu in reps])
            steps = np.linalg.norm(np.diff(centres, axis=1), axis=2)
            self._max_gap = float(steps.max()) + 2.0 * self.radius
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
    lo, hi = tess.cell_bounds(balls.cells)
    c, rad = balls.centres, balls.radius
    inside_one_cell = np.all(c - rad >= lo - 1e-12) and np.all(c + rad <= hi + 1e-12)
    p1 = bool(inside_one_cell and np.all(tess.position[balls.cells] > tess.position[balls.target_cell]))
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
