import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rggembed import geometry as G


def test_critical_radius_simple_values():
    # n = e^10 rounded to 22026 gives ln n ~ 10, so r_c ~ ln 2 / 20
    assert G.critical_radius(22026, 1, 3) == pytest.approx(math.log(2) / 20, rel=1e-4)
    # sqrt(d) scaling: d = 4 doubles the d = 1 value exactly
    assert G.critical_radius(5000, 4, 5) == pytest.approx(2 * G.critical_radius(5000, 1, 5))


def test_critical_radius_high_precision_oracle():
    import mpmath

    mpmath.mp.dps = 50
    expected = mpmath.sqrt(2) * mpmath.log(3) / (2 * mpmath.log(10**6))
    assert G.critical_radius(10**6, 2, 4) == pytest.approx(float(expected), rel=1e-12)
    assert float(expected) == pytest.approx(0.056225, abs=1e-5)


def test_critical_radius_rejections():
    with pytest.raises(ValueError, match="degenerate degree"):
        G.critical_radius(100, 1, 2)
    with pytest.raises(ValueError, match="n too small"):
        G.critical_radius(2, 1, 3)


def test_epsilon_param_values():
    assert G.epsilon_param(22026, 1, 3) == pytest.approx(10 * math.log(30), rel=1e-3)
    # at n = e^100 the formula collapses to ln(300)
    n_e100 = int(math.exp(100))
    assert G.epsilon_param(n_e100, 1, 3) == pytest.approx(math.log(300), rel=1e-6)


def test_epsilon_param_desk_scale_exceeds_ball_limit():
    import mpmath

    mpmath.mp.dps = 50
    ln_n = mpmath.log(10**5)
    expected = 200 * mpmath.log(3 * ln_n) / ln_n
    got = G.epsilon_param(10**5, 2, 3)
    assert got == pytest.approx(float(expected), rel=1e-12)
    assert got > G.EPSILON_FEASIBILITY_LIMIT  # ~61.5, far beyond feasibility


@given(
    n=st.integers(10, 10**7),
    d=st.integers(1, 4),
    delta=st.integers(3, 40),
)
def test_critical_radius_monotonicity(n, d, delta):
    base = G.critical_radius(n, d, delta)
    assert G.critical_radius(n, d, delta + 1) > base
    assert G.critical_radius(n + max(1, n // 10), d, delta) < base
    assert G.critical_radius(n, d, delta) == pytest.approx(
        math.sqrt(d) * G.critical_radius(n, 1, delta)
    )


def test_simulation_epsilon_cap_and_override():
    assert G.simulation_epsilon(10**5, 2, 3) == 0.5
    assert G.simulation_epsilon(10**5, 2, 3, override=4.9) == 4.9
    with pytest.raises(ValueError):
        G.simulation_epsilon(10**5, 2, 3, override=-1)


class TestChooseOddS:
    def test_midpoint_rule_example(self):
        # r_c(22026, 1, 3) ~ 0.0346574 puts the valid odd s in [55, 81];
        # the rule picks the s whose 1/s is closest to the midpoint's
        assert G.choose_odd_s(22026, 1, 3, 0.1) == 69

    def test_oracle_enumeration(self):
        # independent re-derivation: enumerate odd integers in the interval
        n, d, delta, eps = 22026, 1, 3, 0.1
        r_c = G.critical_radius(n, d, delta)
        lo, hi = (1 / 3) * (1 + eps / 2) * r_c, 0.5 * (1 + 2 * eps / 3) * r_c
        s_lo, s_hi = math.sqrt(d) / hi, math.sqrt(d) / lo
        mid = (s_lo + s_hi) / 2
        cands = [s for s in range(3, 1000, 2) if s_lo <= s <= s_hi]
        best = min(cands, key=lambda s: (abs(1 / s - 1 / mid), s))
        assert G.choose_odd_s(n, d, delta, eps) == best
        # the returned s really lands in the stated window
        s = G.choose_odd_s(n, d, delta, eps)
        assert lo <= math.sqrt(d) / s <= hi

    def test_singleton_interval(self):
        assert G._select_odd_s(5.0, 5.0) == 5

    def test_infeasible_interval(self):
        with pytest.raises(G.GeometryInfeasible) as err:
            G._select_odd_s(2.1, 2.9)
        assert err.value.details["s_lo"] == 2.1

    def test_infeasible_real_inputs(self):
        # huge delta at tiny n pushes the window below 3
        with pytest.raises(G.GeometryInfeasible):
            G.choose_odd_s(3, 1, 10, 0.1)


class TestTessellation:
    def test_d1_s3_layout(self):
        t = G.build_tessellation(1, 3)
        assert t.n_cells == 3
        assert t.central_cell == 1
        # the two outer cells first, lexicographic tie-break, central last
        assert list(t.order) == [0, 2, 1]
        assert t.successor[0] == 1 and t.successor[2] == 1 and t.successor[1] == -1

    def test_d2_s3_successor_rule(self):
        t = G.build_tessellation(2, 3)
        # cell with centre (1/6, 1/6): first coordinate adjusts toward centre
        cell = int(t.cell_of_points(np.array([[1 / 6, 1 / 6]]))[0])
        nu = int(t.successor[cell])
        assert np.allclose(t.centres[nu], [0.5, 1 / 6])

    def test_eta(self):
        assert G.build_tessellation(1, 9).eta == 3
        assert G.build_tessellation(1, 41).eta == 11

    def test_rejects_bad_s(self):
        with pytest.raises(ValueError):
            G.build_tessellation(2, 4)
        with pytest.raises(ValueError):
            G.build_tessellation(2, 1)

    @pytest.mark.parametrize("d,s", [(1, 9), (2, 5), (2, 9), (3, 3), (3, 7)])
    def test_invariants(self, d, s):
        t = G.build_tessellation(d, s)
        assert t.n_cells == s**d
        # exactly one central cell containing the cube centre
        centre_cell = int(t.cell_of_points(np.full((1, d), 0.5))[0])
        assert centre_cell == t.central_cell
        assert t.order[-1] == t.central_cell
        # ordering non-increasing in centre distance
        dist = np.linalg.norm(t.centres - 0.5, axis=1)
        ordered = dist[t.order]
        assert np.all(np.diff(ordered) <= 1e-12)
        # successors: unit grid step toward the centre along the first
        # disagreeing coordinate, strictly later in the ordering
        mid = (s - 1) // 2
        for c in range(t.n_cells):
            if c == t.central_cell:
                continue
            nu = int(t.successor[c])
            diff = t.centres[nu] - t.centres[c]
            nz = np.flatnonzero(np.abs(diff) > 1e-12)
            assert len(nz) == 1
            axis = int(nz[0])
            g = t.grid_coords(c)
            assert np.all(g[:axis] == mid)  # earlier coordinates agree with centre
            assert abs(abs(diff[axis]) - 1 / s) < 1e-12
            assert t.position[nu] > t.position[c]

    def test_boundary_point_rule(self):
        t = G.build_tessellation(1, 3)
        # boundary coordinate maps to the lower cell; 1.0 clamps to the last
        cells = t.cell_of_points(np.array([[0.0], [1 / 3], [1.0]]))
        assert list(cells) == [0, 1, 2]

    def test_cell_pair_distance_bound(self):
        # sampled pairs x in q, y in nu(q) stay within 2 sqrt(d)/s
        rng = np.random.default_rng(0)
        for d, s in [(1, 5), (2, 7), (3, 5)]:
            t = G.build_tessellation(d, s)
            bound = 2 * math.sqrt(d) / s
            cells = [c for c in range(t.n_cells) if c != t.central_cell]
            for c in rng.choice(cells, size=min(10, len(cells)), replace=False):
                nu = int(t.successor[c])
                lo_q, hi_q = t.cell_bounds(int(c))
                lo_n, hi_n = t.cell_bounds(nu)
                x = lo_q + rng.random((2000, d)) * (hi_q - lo_q)
                y = lo_n + rng.random((2000, d)) * (hi_n - lo_n)
                assert np.linalg.norm(x - y, axis=1).max() <= bound + 1e-12


class TestTransitBalls:
    def test_d1_s9_example(self):
        t = G.build_tessellation(1, 9)
        eps = 0.5
        tb = G.BallSystem(t, eps).for_target(0)
        assert tb.radius == pytest.approx(eps / 180)  # 2^-1 * eps / (10 s)
        assert tb.nu_cell == 1
        # eta = 3: centres spaced evenly from the cube centre to c(nu)
        assert np.allclose(tb.centres.ravel(), [0.5, 7 / 18, 5 / 18, 3 / 18])
        chk = G.verify_transit_balls(t, tb, r=0.5)
        assert chk.p1 and chk.p2 and chk.p3 and chk.all_in_enclosing

    def test_first_ball_at_cube_centre(self):
        t = G.build_tessellation(2, 7)
        bs = G.BallSystem(t, 1.0)
        for target in (0, 3, 45):
            tb = bs.for_target(target)
            assert np.allclose(tb.centres[0], 0.5)
            assert int(tb.cells[0]) == t.central_cell

    def test_epsilon_limit(self):
        t = G.build_tessellation(1, 9)
        with pytest.raises(G.GeometryInfeasible, match="infeasible at epsilon"):
            G.BallSystem(t, 6.0)

    def test_p3_violation_reported(self):
        t = G.build_tessellation(1, 9)
        chk = G.verify_transit_balls(t, G.BallSystem(t, 0.5).for_target(0), r=0.01)
        assert chk.p1 and chk.p2
        assert chk.p3 is False and chk.max_gap > 0.01

    def test_central_target_rejected(self):
        t = G.build_tessellation(1, 9)
        bs = G.BallSystem(t, 0.5)
        with pytest.raises(ValueError):
            bs.for_target(t.central_cell)

    def test_pinched_corner_slides_but_keeps_properties(self):
        # the segment toward the successor of grid cell (4, 6) passes exactly
        # through a lattice corner at slope 1:3, where no ball of the required
        # radius fits inside the ideal enclosing ball; the centre slides along
        # the segment instead and P1/P2 still hold
        t = G.build_tessellation(2, 7)
        bs = G.BallSystem(t, 1.0)
        tb = bs.for_target(int(np.ravel_multi_index((5, 6), (7, 7))))
        assert not tb.in_enclosing.all()
        chk = G.verify_transit_balls(t, tb, r=1.0)
        assert chk.p1 and chk.p2

    def test_degenerate_direction_collapses_to_centre(self):
        # targets adjacent to the central cell have nu = central, so every
        # ball sits at the cube centre
        t = G.build_tessellation(1, 3)
        bs = G.BallSystem(t, 0.5)
        tb = bs.for_target(0)
        assert np.allclose(tb.centres, 0.5)
        assert G.verify_transit_balls(t, tb, r=2 / 3).p3

    @pytest.mark.parametrize("d,s", [(1, 9), (2, 7), (2, 11), (3, 5)])
    def test_max_gap_matches_per_cell_key(self, d, s):
        # reference: the symmetry classes keyed cell by cell, first id kept
        tess = G.build_tessellation(d, s)
        bs = G.BallSystem(tess, 0.6)
        reps = {}
        for nu in bs.distinct_nu_cells().tolist():
            disp = tess.grid_coords(nu) - (s - 1) // 2
            reps.setdefault(tuple(sorted(abs(int(x)) for x in np.atleast_1d(disp))), nu)
        worst = 0.0
        for nu in reps.values():
            centres = G._ball_positions(tess, [nu], 0.6)[0][0]
            steps = np.linalg.norm(np.diff(centres, axis=0), axis=1)
            worst = max(worst, float(steps.max()) + 2.0 * bs.radius)
        assert bs.max_consecutive_gap() == worst
        assert sorted(bs._by_nu) == sorted(reps.values())

    def test_directions_are_built_once(self, monkeypatch):
        # a direction that for_target already built is not built again
        built = []
        positions = G._ball_positions
        monkeypatch.setattr(G, "_ball_positions",
                            lambda tess, nus, eps: built.extend(nus) or positions(tess, nus, eps))
        tess = G.build_tessellation(2, 7)
        bs = G.BallSystem(tess, 0.6)
        first = bs.for_target(0)
        bs.max_consecutive_gap()
        assert len(built) == len(set(built))
        assert bs.for_target(0).centres is first.centres

    @pytest.mark.parametrize("d,s,eps,digest", [
        # the benchmark's set-up tessellations (sim mode, eps 4.9)
        (1, 19, 4.9, "9ce893e786ea1205a7e6dc01bd2346f016266da48ad3fcaf3f2025b99ce75247"),
        (2, 23, 4.9, "0a806e5f72cfaf9939a31a39f5bc0d52c380970d82f47bae7cac18f325f1220c"),
        (2, 7, 1.0, "5926fd56dc4daab25a0aaa5d00f0f65ff96885185cd6f7805542ee141872c04b"),
        (3, 9, 0.6, "babb0c2fe75c47b3cb1ffbf8a4418d13e4b00ac107084ea484d208cb9642970a"),
    ])
    def test_ball_geometry_pinned(self, d, s, eps, digest):
        # centres, cells and flags of every distinct direction, bit for bit;
        # the symmetry representatives come from max_consecutive_gap's batch
        tess = G.build_tessellation(d, s)
        bs = G.BallSystem(tess, eps)
        bs.max_consecutive_gap()
        h = hashlib.sha256()
        for nu in bs.distinct_nu_cells().tolist():
            tb = bs.for_target(int(np.flatnonzero(tess.successor == nu)[0]))
            for a in (tb.centres, tb.cells, tb.in_enclosing):
                h.update(a.dtype.str.encode() + a.tobytes())
        assert h.hexdigest() == digest

    def test_max_gap_scratch_is_bounded(self):
        # 1770 symmetry representatives at s = 41 are placed a chunk at a time
        bs = G.BallSystem(G.build_tessellation(3, 41), 0.5)
        tracemalloc.start()
        try:
            bs.max_consecutive_gap()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


def _consistent_radius(d, s, eps, rng):
    """A radius of the form (1 + eps) r_c with r_c drawn from the window
    where choose_odd_s would have accepted this s."""
    sd = math.sqrt(d)
    rc_lo = 2 * sd / ((1 + 2 * eps / 3) * s)
    rc_hi = 3 * sd / ((1 + eps / 2) * s)
    r_c = rng.uniform(rc_lo, rc_hi)
    return (1 + eps) * r_c


@pytest.mark.slow
def test_ball_properties_random_configurations():
    # 100 random (d, odd s, eps) configurations with a consistent radius:
    # P1, P2 and P3 hold for every constructed ball system
    rng = np.random.default_rng(2024)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        s = int(rng.choice(np.arange(3, 43, 2)))
        eps = float(rng.uniform(0.05, 1.0))
        r = _consistent_radius(d, s, eps, rng)
        tess = G.build_tessellation(d, s)
        bs = G.BallSystem(tess, eps)
        assert bs.max_consecutive_gap() <= r + 1e-12
        cells = [c for c in range(tess.n_cells) if c != tess.central_cell]
        sample = rng.choice(cells, size=min(40, len(cells)), replace=False)
        for c in sample:
            chk = G.verify_transit_balls(tess, bs.for_target(int(c)), r)
            assert chk.p1 and chk.p2 and chk.p3
