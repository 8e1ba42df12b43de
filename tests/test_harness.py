import math

import numpy as np
import pytest
from scipy.stats import binomtest

from rggembed import embed as E, geometry as G, rgg, trees
from rggembed import harness as H


class TestStatsHelpers:
    @pytest.mark.parametrize("s,t", [(0, 10), (3, 10), (10, 10), (7, 200)])
    def test_wilson_matches_scipy(self, s, t):
        lo, hi = H.wilson_interval(s, t)
        ci = binomtest(s, t).proportion_ci(confidence_level=0.95, method="wilson")
        assert lo == pytest.approx(ci.low, abs=1e-9)
        assert hi == pytest.approx(ci.high, abs=1e-9)

    def test_nondecreasing_detects_big_drop(self):
        assert H.is_statistically_nondecreasing([0, 20, 20], [20, 20, 20])
        assert not H.is_statistically_nondecreasing([20, 2], [20, 20])
        # small fluctuations are not significant
        assert H.is_statistically_nondecreasing([10, 9, 11], [20, 20, 20])


class TestConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            H.ExperimentConfig(n=10, d=1, delta=3, r_values=(0.5,), trials=0)

    def test_requires_exactly_one_radius_spec(self):
        with pytest.raises(ValueError):
            H.ExperimentConfig(n=10, d=1, delta=3)
        with pytest.raises(ValueError):
            H.ExperimentConfig(n=10, d=1, delta=3, r_values=(0.1,), r_multipliers=(1.0,))

    def test_multipliers_resolve_against_critical_radius(self):
        cfg = H.ExperimentConfig(n=1000, d=2, delta=4, r_multipliers=(2.0,), trials=1)
        (r, mult), = cfg.radii()
        assert mult == 2.0
        assert r == pytest.approx(2 * G.critical_radius(1000, 2, 4))


class TestUniversalityTrial:
    def test_n1_trivial_success(self):
        cfg = H.ExperimentConfig(n=1, d=1, delta=3, r_values=(0.5,), trials=1)
        rec = H.run_universality_trial(cfg, 0.5, seed=1)
        assert rec.status == "success" and rec.validator_ok

    def test_n2_depends_on_adjacency(self):
        cfg = H.ExperimentConfig(n=2, d=1, delta=3, r_values=(1.0,), trials=1)
        assert H.run_universality_trial(cfg, 1.0, seed=1).status == "success"
        tiny = H.run_universality_trial(cfg, 1e-6, seed=1)
        assert tiny.status in ("success", "failure")

    @pytest.mark.parametrize("n,r,seed,kw", [
        # n <= 2: the identity map, adjacent at r = 1 on the line
        (2, 1.0, 1, {}),
        # a d=1 configuration that succeeds (see test_successful_trial_validates)
        (30000, None, 11, dict(tree_family="path", epsilon_override=4.9, m_override=700.0)),
    ], ids=["n2", "d1_success"])
    def test_rejected_success_raises(self, monkeypatch, n, r, seed, kw):
        # the validator is the only judge: a success it rejects must stop
        # the trial, also under python -O, instead of entering a curve
        reject = E.VerificationResult(False, ("edge", 0, 1, 2.0))
        monkeypatch.setattr(H.embed_mod, "verify_embedding", lambda *a: reject)
        radius = dict(r_values=(r,)) if r else dict(r_multipliers=(6.0,))
        cfg = H.ExperimentConfig(n=n, d=1, delta=3, trials=1, **radius, **kw)
        (r, mult), = cfg.radii()
        with pytest.raises(RuntimeError, match="independent validation"):
            H.run_universality_trial(cfg, r, seed=seed, r_multiplier=mult)

    def test_replay_key_ignores_stage_times(self):
        cfg = H.ExperimentConfig(
            n=2000, d=1, delta=3, tree_family="path", r_multipliers=(4.0,),
            trials=1, epsilon_override=4.5, m_override=200.0,
        )
        (r, mult), = cfg.radii()
        rec = H.run_universality_trial(cfg, r, seed=17, r_multiplier=mult)
        key = rec.replay_key()
        for name in ("runtime_s", "t_geometry", "t_sample", "t_tree", "t_embed", "t_verify"):
            setattr(rec, name, getattr(rec, name) + 123.0)
        assert rec.replay_key() == key

    def test_replay_identical(self):
        cfg = H.ExperimentConfig(
            n=2000, d=1, delta=3, tree_family="path", r_multipliers=(4.0,),
            trials=1, seed=5, epsilon_override=4.5, m_override=200.0,
        )
        (r, mult), = cfg.radii()
        a = H.run_universality_trial(cfg, r, seed=17, r_multiplier=mult)
        b = H.run_universality_trial(cfg, r, seed=17, r_multiplier=mult)
        assert a.replay_key() == b.replay_key()
        if a.embedding is not None:
            assert np.array_equal(a.embedding, b.embedding)

    def test_paper_mode_records_infeasibility(self):
        cfg = H.ExperimentConfig(
            n=2000, d=1, delta=3, mode="paper", r_multipliers=(2.0,), trials=1
        )
        (r, _), = cfg.radii()
        rec = H.run_universality_trial(cfg, r, seed=0)
        assert rec.status == "infeasible"
        assert "infeasible" in rec.infeasible_reason

    def test_sim_default_m_infeasible_in_2d(self):
        # in two dimensions the default part weight drops below one vertex
        # weight at workstation scale, so the trial records why
        cfg = H.ExperimentConfig(n=2000, d=2, delta=3, r_multipliers=(2.0,), trials=1)
        (r, _), = cfg.radii()
        rec = H.run_universality_trial(cfg, r, seed=0)
        assert rec.status == "infeasible"
        assert "m0" in rec.infeasible_reason

    def test_uniform_family_exceeding_delta_is_infeasible(self):
        cfg = H.ExperimentConfig(
            n=3000, d=1, delta=3, tree_family="uniform", r_multipliers=(4.0,),
            trials=1, epsilon_override=4.5, m_override=300.0,
        )
        (r, mult), = cfg.radii()
        rec = H.run_universality_trial(cfg, r, seed=3, r_multiplier=mult)
        assert rec.status == "infeasible"
        assert "exceeds delta" in rec.infeasible_reason

    def test_successful_trial_validates(self):
        cfg = H.ExperimentConfig(
            n=30000, d=1, delta=3, tree_family="path", r_multipliers=(6.0,),
            trials=1, epsilon_override=4.9, m_override=700.0,
        )
        (r, mult), = cfg.radii()
        rec = H.run_universality_trial(cfg, r, seed=11, r_multiplier=mult)
        assert rec.status == "success"
        assert rec.validator_ok
        assert rec.embedding is not None and len(np.unique(rec.embedding)) == 30000


class TestSimHubTransit:
    """Sim mode sizes its cells from the trial radius and gathers the anchors
    in a hub of red points within r/2 of the cube centre (d=2, n=8000: one
    radius too small for the hub, one where every seed tried succeeds)."""

    n = 8000

    def _config(self, r):
        return H.ExperimentConfig(
            n=self.n, d=2, delta=3, tree_family="path", r_values=(r,), trials=1,
            epsilon_override=4.9, m_override=30.0,
        )

    def _instance(self, seed):
        # the trial draws points and colours from the first two spawned streams
        s_points, s_colors, _ = np.random.SeedSequence(seed).spawn(3)
        points = rgg.sample_points(self.n, 2, s_points)
        return points.coords, rgg.color_points(points, 0.5, s_colors).blue

    def test_hub_shortfall_is_a_structured_failure(self):
        r = 0.3
        cfg = self._config(r)
        rec = H.run_universality_trial(cfg, r, seed=3)
        # r/(1+eps) < r_c here, so the cells are the ones r_c gives
        assert rec.s == H._prepare_geometry(cfg).tess.s
        assert rec.status == "failure"
        assert (rec.failure_step, rec.failure_resource) == (1, "hub")
        assert rec.failure_demanded == 2 * (rec.k - 1)  # both ends of every cut edge
        coords, blue = self._instance(3)
        near = np.sum((coords - 0.5) ** 2, axis=1) <= (r / 2) ** 2
        assert rec.failure_available == np.count_nonzero(near & ~blue)
        assert rec.failure_available < rec.failure_demanded
        # the hub numbers are recorded as such, before any part is placed
        assert (rec.hub_demanded, rec.hub_available) == (
            rec.failure_demanded, rec.failure_available)
        assert rec.failure_iteration == 0 and rec.failure_resource_id is None
        assert rec.walked is None and rec.max_blue_overflow is None

    def test_success_is_certified(self):
        r = 0.6
        cfg = self._config(r)
        rec = H.run_universality_trial(cfg, r, seed=3)
        # r/(1+eps) > r_c: larger cells than r_c would give
        assert rec.s < H._prepare_geometry(cfg).tess.s
        assert rec.status == "success", rec
        assert rec.validator_ok
        assert rec.hub_available >= rec.hub_demanded == 2 * (rec.k - 1)
        assert rec.walked is not None and rec.max_blue_overflow is not None
        row = rec.to_row()
        assert all(row[f] is None for f in row if f.startswith("failure_"))
        coords, _ = self._instance(3)
        emb = rec.embedding
        assert np.array_equal(np.sort(emb), np.arange(self.n))
        step = coords[emb[1:]] - coords[emb[:-1]]
        assert np.all(np.sum(step * step, axis=1) <= r * r)

    def test_step2_failure_records_where(self):
        # small cells against parts of ~39 vertices: the hub holds its
        # anchors, but cell 26 and the blue points of its successor 35 run
        # out in part 32 of 128
        n, r = 5000, 0.6
        cfg = H.ExperimentConfig(
            n=n, d=2, delta=3, tree_family="path", r_values=(r,), trials=1,
            epsilon_override=4.9, m_override=40.0,
        )
        rec = H.run_universality_trial(cfg, r, seed=0)
        assert rec.status == "failure"
        assert (rec.failure_step, rec.failure_resource) == (2, "cell+successor")
        assert (rec.k, rec.failure_iteration, rec.failure_resource_id) == (128, 32, (26, 35))
        assert (rec.hub_demanded, rec.hub_available) == (254, 691)
        assert rec.failure_available < rec.failure_demanded
        assert rec.walked is None and rec.max_blue_overflow is None

    def test_walk_in_one_dimension(self):
        # at n=3e4, d=1, 6 r_c the anchors sit too far from most boxes, so
        # vertices walk out from the hub before Step 2 takes over
        n, m = 30000, 700.0
        cfg = H.ExperimentConfig(
            n=n, d=1, delta=3, tree_family="path", r_multipliers=(6.0,), trials=1,
            epsilon_override=4.9, m_override=m,
        )
        (r, _), = cfg.radii()
        geo = H._trial_geometry(cfg, H._prepare_geometry(cfg), r)
        points = rgg.sample_points(n, 1, 0)
        colors = rgg.color_points(points, 0.5, 7)
        graph = rgg.build_graph(points, r)
        tree = trees.path_tree(n)
        result = E.embed_tree(tree, graph, colors, geo.tess, None, m, 3)
        assert result.ok, result.failure
        assert result.diagnostics["walked"] > 0
        assert E.verify_embedding(tree, graph, result).ok


class TestThresholdSweep:
    def test_identical_seeds_identical_curves(self):
        cfg = H.ExperimentConfig(
            n=1500, d=1, delta=3, tree_family="path", r_multipliers=(1.0, 4.0),
            trials=3, seed=9, epsilon_override=4.5, m_override=150.0,
            store_embeddings=False,
        )
        a = H.run_threshold_sweep(cfg)
        b = H.run_threshold_sweep(cfg)

        def rows(curve):
            out = []
            for p in curve.points:
                row = p.to_row()
                row.pop("mean_runtime_s")  # wall clock is outside the contract
                out.append(row)
            return out

        assert rows(a) == rows(b)
        for recs_a, recs_b in zip(a.records, b.records):
            for ra, rb in zip(recs_a, recs_b):
                assert ra.replay_key() == rb.replay_key()

    @pytest.mark.slow
    def test_complete_graph_gives_frequency_one(self):
        # r = sqrt(d) makes the graph complete; with a feasible part weight
        # the algorithm embeds every trial and every success validates
        cfg = H.ExperimentConfig(
            n=30000, d=1, delta=3, tree_family="path", r_values=(1.0,),
            trials=5, seed=4, epsilon_override=4.9, m_override=700.0,
        )
        curve = H.run_threshold_sweep(cfg)
        assert curve.points[0].frequency == 1.0
        for rec in curve.records[0]:
            assert rec.validator_ok

    def test_failure_histogram_populates(self):
        cfg = H.ExperimentConfig(
            n=1500, d=1, delta=3, tree_family="path", r_multipliers=(0.5,),
            trials=3, seed=2, epsilon_override=4.5, m_override=150.0,
            store_embeddings=False,
        )
        curve = H.run_threshold_sweep(cfg)
        pt = curve.points[0]
        assert pt.successes == 0
        assert pt.failures_geometry == 3  # r below the cell-successor reach

    def test_fix_tree_reuses_one_tree(self):
        cfg = H.ExperimentConfig(
            n=800, d=1, delta=3, tree_family="bounded_random",
            r_multipliers=(2.0,), trials=2, seed=7, fix_tree=True,
            epsilon_override=4.5, m_override=100.0, store_embeddings=False,
        )
        curve = H.run_threshold_sweep(cfg)
        degs = {rec.tree_max_degree for recs in curve.records for rec in recs}
        assert len(degs) == 1


class TestLowerBound:
    def test_complete_graph_no_obstruction(self):
        rec = H.run_lower_bound_experiment(300, 2, 3, math.sqrt(2), trials=3, seed=0)
        assert all(t.diameter == 1 for t in rec.trials)
        assert rec.obstruction_fraction == 0.0

    def test_corner_occupancy_matches_analytic(self):
        # the diameter (about 9) is decided against 2h = 22 by its upper end
        rec = H.run_lower_bound_experiment(3000, 2, 3, 0.2, trials=50, seed=1)
        assert rec.corner_hit_probability > 0.99
        assert rec.corner_fraction >= 0.9
        assert all(t.diameter_upper <= rec.two_h for t in rec.trials)

    def test_decisions_are_certified(self):
        # from 0.9 to 1.3 r_c the diameter crosses 2h = 20; every decision
        # carries its certificate, and at 1.2 r_c the diameter equals 2h
        seen = set()
        for mult in (0.9, 1.1, 1.2, 1.3):
            r = mult * G.critical_radius(2000, 2, 3)
            rec = H.run_lower_bound_experiment(2000, 2, 3, r, trials=4, seed=3)
            for t in rec.trials:
                assert t.diameter <= t.diameter_upper
                assert t.diameter_exact == (t.diameter == t.diameter_upper)
                assert t.obstructed == (t.diameter > rec.two_h)
                assert t.obstructed or t.diameter_upper <= rec.two_h
                seen.add((t.obstructed, t.diameter == rec.two_h))
        assert {(True, False), (False, True)} <= seen

    def test_rejections(self):
        with pytest.raises(ValueError):
            H.run_lower_bound_experiment(100, 1, 3, -0.5, trials=2, seed=0)
        with pytest.raises(ValueError):
            H.run_lower_bound_experiment(100, 1, 3, 0.5, trials=0, seed=0)


class TestConcentration:
    def test_whole_cube_never_violates(self):
        rec = H.run_concentration_check(1000, 1.0, 1.0, trials=20, seed=3)
        assert rec.violations == 0
        assert all(c == 1000 for c in rec.counts)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="10/\\(np\\)"):
            H.run_concentration_check(10**5, 1e-6, 0.5, trials=5, seed=0)
        with pytest.raises(ValueError, match="n >= 10/p"):
            H.run_concentration_check(5, 0.9, 1.0, trials=5, seed=0)

    def test_bound_formula(self):
        rec = H.run_concentration_check(10**4, 0.2, 0.5, trials=5, seed=0)
        anp = 10**4 * 0.2 * 0.5
        assert rec.expected == anp
        assert rec.bound == pytest.approx(2 * math.exp(-(anp ** (1 / 3)) / 3))


class TestProp1:
    def test_huge_c_always_succeeds(self):
        curve = H.run_prop1_experiment(128, [200.0], trials=10, seed=0)
        assert curve.points[0].r == 1.0
        assert curve.points[0].frequency == 1.0

    def test_tiny_c_never_succeeds(self):
        curve = H.run_prop1_experiment(128, [1e-6], trials=10, seed=0)
        assert curve.points[0].frequency == 0.0

    def test_records_height_and_width(self):
        curve = H.run_prop1_experiment(64, [5.0], trials=5, seed=2)
        p = curve.points[0]
        assert p.mean_tree_height >= 1 and p.mean_tree_width >= 1

    def test_monotone_small_curve(self):
        curve = H.run_prop1_experiment(256, [0.05, 2.0, 50.0], trials=15, seed=6)
        assert curve.nondecreasing()

    def test_rejected_greedy_success_raises(self, monkeypatch):
        # a greedy success the validator rejects must stop the experiment,
        # also under python -O, instead of being counted
        reject = E.VerificationResult(False, ("edge", 0, 1, 2.0))
        monkeypatch.setattr(H.embed_mod, "verify_embedding", lambda *a: reject)
        with pytest.raises(RuntimeError, match="independent validation"):
            H.run_prop1_experiment(128, [200.0], trials=1, seed=0)


def test_write_rows_csv_and_json(tmp_path):
    rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5, "c": "x"}]
    csv_path = tmp_path / "out.csv"
    H.write_rows(csv_path, rows, "csv")
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "a,b,c"
    assert len(lines) == 3

    json_path = tmp_path / "out.json"
    H.write_rows(json_path, rows, "json")
    import json

    data = json.loads(json_path.read_text())
    assert data[0]["a"] == 1 and data[1]["c"] == "x"

    with pytest.raises(ValueError):
        H.write_rows(tmp_path / "bad", rows, "xml")
