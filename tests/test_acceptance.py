"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are pinned
in-line; statistical criteria use fixed seeds so the suite is reproducible.
Criterion 7 runs simulation mode, whose cells follow the trial radius and
whose anchors meet in a hub of radius r/2; see its docstring.
"""

import math

import numpy as np
import pytest
from scipy import stats as sstats

from rggembed import geometry as G, rgg, trees
from rggembed import embed as E
from rggembed import harness as H
from rggembed.decompose import check_decomposition, split_tree


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_graph_build_oracle_equivalence():
    """100 random instances: bucket-indexed edge set == brute force, exactly."""
    rng = np.random.default_rng(101)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(2, 501))
        d = int(rng.integers(1, 4))
        r = float(rng.uniform(0.01, math.sqrt(d)))
        pts = rgg.sample_points(n, d, int(rng.integers(1 << 32)))
        if not np.array_equal(rgg.build_graph(pts, r).edges(), rgg.brute_force_edges(pts, r)):
            mismatches += 1
    ok = mismatches == 0
    report("criterion-1 graph oracle", ok, f"{100 - mismatches}/100 instances exact")
    assert ok


def test_criterion_2_lemma_divide_suite():
    """1000 random trees (n <= 200, delta <= 6, valid m): every invariant holds."""
    rng = np.random.default_rng(202)
    checked = 0
    for i in range(1000):
        n = int(rng.integers(2, 201))
        delta = int(rng.integers(2, 7))
        tree = trees.random_bounded_degree_tree(n, delta, int(rng.integers(1 << 32)))
        if i % 10 < 7:
            w = None  # unit weights, the case the embedding uses
            m = float(rng.uniform(delta + 1, max(delta + 2, 1.5 * n)))
        else:
            m = float(rng.uniform(2.0, 25.0))
            m0 = m / (delta + 1)
            w = rng.uniform(1e-3, m0, size=n)
            if w.sum() < m0:
                w = np.minimum(w * (1.1 * m0 / w.sum()), m0)
        dec = split_tree(tree, w, m, delta)
        check_decomposition(tree, w, m, delta, dec)  # raises on any violation
        checked += 1
    ok = checked == 1000
    report("criterion-2 divide lemma", ok, f"{checked}/1000 decompositions, all invariants exact")
    assert ok


def test_criterion_3_embedding_soundness():
    """>= 500 randomized embedding trials: every success passes the validator."""
    rng = np.random.default_rng(303)
    configs = []
    # mostly below the feasibility window: failures with structured reasons
    for _ in range(380):
        configs.append(
            dict(
                n=int(rng.integers(500, 5000)),
                delta=int(rng.choice([3, 3, 4, 5])),
                eps=float(rng.choice([0.5, 1.5, 3.0, 4.9])),
                mult=float(rng.choice([0.5, 1.0, 2.0, 4.0, 6.0])),
                m=None,
                family=str(rng.choice(["path", "bounded_random", "truncated_regular"])),
            )
        )
    # inside the window: successes that must validate
    for _ in range(120):
        configs.append(
            dict(
                n=int(rng.integers(18000, 32000)),
                delta=3,
                eps=4.9,
                mult=float(rng.choice([5.0, 6.0, 8.0])),
                m=700.0,
                family="path",
            )
        )

    trials = successes = invalid = 0
    failure_kinds = {}
    for cfg in configs:
        n, delta = cfg["n"], cfg["delta"]
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
        if cfg["family"] == "path":
            tree = trees.path_tree(n)
        elif cfg["family"] == "truncated_regular":
            tree = trees.truncated_regular_tree(n, delta)
        else:
            tree = trees.random_bounded_degree_tree(n, delta, int(rng.integers(1 << 32)))
        m = cfg["m"] if cfg["m"] else float(rng.uniform(delta + 1, n / 2))
        result = E.embed_tree(tree, g, cols, tess, balls, m, delta)
        trials += 1
        if result.ok:
            successes += 1
            if not E.verify_embedding(tree, g, result).ok:
                invalid += 1
        else:
            key = (result.failure.step, result.failure.resource)
            failure_kinds[key] = failure_kinds.get(key, 0) + 1

    ok = trials >= 500 and invalid == 0 and successes > 0
    report(
        "criterion-3 soundness",
        ok,
        f"{trials} trials, {successes} successes, {invalid} validator rejections; "
        f"failure kinds {failure_kinds}",
    )
    assert trials >= 500
    assert successes > 0, "no successes sampled; the suite would be vacuous"
    assert invalid == 0


def test_criterion_4_geometry_suite():
    """P1, P2, P3 and the cell-pair bound for 100 random configurations,
    10^4 sampled point pairs each."""
    rng = np.random.default_rng(404)
    bad = []
    for idx in range(100):
        d = int(rng.integers(1, 4))
        s = int(rng.choice(np.arange(3, 43, 2)))
        eps = float(rng.uniform(0.05, 1.0))
        sd = math.sqrt(d)
        rc_lo = 2 * sd / ((1 + 2 * eps / 3) * s)
        rc_hi = 3 * sd / ((1 + eps / 2) * s)
        r = (1 + eps) * float(rng.uniform(rc_lo, rc_hi))
        tess = G.build_tessellation(d, s)
        balls = G.BallSystem(tess, eps)

        # P3 exactly over every direction (symmetry classes), then sampled pairs
        if balls.max_consecutive_gap() > r:
            bad.append((idx, "p3-gap"))
            continue

        non_central = np.array([c for c in range(tess.n_cells) if c != tess.central_cell])
        targets = rng.choice(non_central, size=min(20, len(non_central)), replace=False)
        pair_budget = 10_000
        per_target = pair_budget // (2 * len(targets))
        ok = True
        for c in targets:
            tb = balls.for_target(int(c))
            chk = G.verify_transit_balls(tess, tb, r)
            if not (chk.p1 and chk.p2 and chk.p3):
                ok = False
                break
            # sampled pairs in consecutive balls never exceed r
            for j in range(tb.eta):
                u = rng.normal(size=(per_target // max(1, tb.eta), d))
                u /= np.linalg.norm(u, axis=1, keepdims=True)
                x = tb.centres[j] + u * tb.radius * rng.random((len(u), 1))
                v = rng.normal(size=(len(u), d))
                v /= np.linalg.norm(v, axis=1, keepdims=True)
                y = tb.centres[j + 1] + v * tb.radius * rng.random((len(u), 1))
                if np.linalg.norm(x - y, axis=1).max() > r + 1e-12:
                    ok = False
                    break
            if not ok:
                break
            # sampled pairs across (q, nu(q)) respect 2 sqrt(d)/s
            nu = int(tess.successor[c])
            lo_q, hi_q = tess.cell_bounds(int(c))
            lo_n, hi_n = tess.cell_bounds(nu)
            x = lo_q + rng.random((per_target, d)) * (hi_q - lo_q)
            y = lo_n + rng.random((per_target, d)) * (hi_n - lo_n)
            if np.linalg.norm(x - y, axis=1).max() > 2 * sd / s + 1e-12:
                ok = False
                break
        if not ok:
            bad.append((idx, "sample"))
    passed = 100 - len(bad)
    report("criterion-4 geometry", not bad, f"{passed}/100 configurations clean ({bad[:3]})")
    assert not bad


@pytest.mark.slow
def test_criterion_5_lower_bound_obstruction():
    """d=2, delta=3, n=30000, r = 0.6 r_c, 20 seeds: the hop-diameter lower
    bound exceeds 2h in at least 18 trials."""
    n, d, delta = 30000, 2, 3
    r = 0.6 * G.critical_radius(n, d, delta)
    rec = H.run_lower_bound_experiment(n, d, delta, r, trials=20, seed=505)
    obstructed = sum(t.obstructed for t in rec.trials)
    ok = obstructed >= 18
    report(
        "criterion-5 lower bound",
        ok,
        f"{obstructed}/20 trials with diameter bound > 2h = {rec.two_h} "
        f"(analytic bound {rec.analytic_diameter_bound:.1f})",
    )
    assert ok


def test_criterion_6_concentration():
    """n=10^5, a=0.04, p=1/2, 200 trials: violation frequency <= 0.05."""
    rec = H.run_concentration_check(10**5, 0.04, 0.5, trials=200, seed=606)
    ok = rec.violation_frequency <= 0.05
    report(
        "criterion-6 concentration",
        ok,
        f"violation frequency {rec.violation_frequency:.4f} <= 0.05 "
        f"(stated tail bound {rec.bound:.4f})",
    )
    assert ok
    assert rec.bound == pytest.approx(0.030, abs=0.002)


@pytest.mark.slow
def test_criterion_7_threshold_curve():
    """Simulation mode, d=2, delta=3, n=10^5, multiples {0.5,1,2,4,8} of the
    critical radius, 30 trials each: the curve must be statistically
    non-decreasing, near 0 at the low end and near 1 at the high end.

    m = 85 splits the path into 2048 parts, so 4094 anchors need a red
    point each within r/2 of the cube centre.  Up to 4 r_c the cells are the
    ones r_c gives (s = 23): below 4 r_c the cell-successor reach 2 sqrt(2)/s
    exceeds r, and at 4 r_c about 1100 red points lie within r/2, so the
    hub fails.  At 8 r_c the cells follow the radius (s = 17) and about 4550
    red points lie within r/2, so the anchors fit, the parts walk out to
    their cells, and every success passes ``verify_embedding``.
    """
    cfg = H.ExperimentConfig(
        n=10**5,
        d=2,
        delta=3,
        tree_family="path",
        r_multipliers=(0.5, 1.0, 2.0, 4.0, 8.0),
        trials=30,
        seed=707,
        epsilon_override=4.9,   # largest feasible ball scale
        m_override=85.0,        # parts fit cells; larger m fails step 2 instead
        store_embeddings=False,
    )
    curve = H.run_threshold_sweep(cfg)
    freqs = curve.frequencies()
    monotone = curve.nondecreasing()
    low_ok = freqs[0] <= 0.1
    high_ok = freqs[-1] >= 0.9
    ok = monotone and low_ok and high_ok
    report(
        "criterion-7 threshold curve",
        ok,
        f"frequencies {freqs} (monotone={monotone}, low<=0.1:{low_ok}, high>=0.9:{high_ok})",
    )
    assert monotone, f"curve not statistically non-decreasing: {freqs}"
    assert low_ok, f"low end not near 0: {freqs}"
    assert high_ok, (
        "high end not near 1: at 8 r_c about 4550 red points lie within r/2 "
        "of the centre against 4094 anchors, so the hub should hold them; "
        f"observed frequencies {freqs}"
    )


def test_criterion_8_prufer_uniformity():
    """n=4, 16000 draws: chi-square over the 16 labelled trees at alpha 0.01."""
    counts = {}
    for i in range(16000):
        t = trees.uniform_random_tree(4, 80000 + i)
        key = frozenset(t.edges())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 16
    _, p = sstats.chisquare(list(counts.values()))
    ok = p >= 0.01
    report("criterion-8 Pruefer uniformity", ok, f"chi-square p = {p:.4f} over 16 trees")
    assert ok


@pytest.mark.slow
def test_criterion_9_prop1_curve():
    """d=1, n=4096, c in {0.05, 0.2, 1, 5, 20}, 50 trials: non-decreasing,
    < 0.2 at the smallest c and > 0.8 at the largest."""
    curve = H.run_prop1_experiment(4096, [0.05, 0.2, 1.0, 5.0, 20.0], trials=50, seed=909)
    freqs = [p.frequency for p in curve.points]
    monotone = curve.nondecreasing()
    ok = monotone and freqs[0] < 0.2 and freqs[-1] > 0.8
    report(
        "criterion-9 greedy line curve",
        ok,
        f"frequencies {freqs} (monotone={monotone})",
    )
    assert monotone
    assert freqs[0] < 0.2
    assert freqs[-1] > 0.8
