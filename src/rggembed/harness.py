"""Seeded experiments: threshold curves, diameter lower bounds, region
concentration, and the 1-d greedy curve.

Everything is replayable: a configuration plus a master seed determines all
trial seeds (and so all outputs except wall-clock timings).  A sweep draws
one independent trial seed per (radius, trial) pair up front, so individual
trials can be re-run in isolation from their recorded seed.

Two parameter modes exist.  ``paper`` uses the exact constants (headroom
epsilon and part weight m = s^(-d) n / (8 d)); these are infeasible at every
n the harness can sample (``epsilon_param`` < 5, the ball limit, needs
ln n >= 118 at d=1, delta=3), and the trial records *why* instead of
crashing.  ``sim`` caps epsilon at 0.5 and accepts explicit overrides for
both knobs so that scaled-down qualitative runs are possible.  The paper's
transit balls keep a size that ignores r (about 4.5 red points in the centre
ball at n=1e5, d=2, against thousands of anchors), so sim mode differs in
two places: it sizes the cells from the trial's radius (r_c in the s window
gives way to max(r_c, r/(1+eps))), and Step 1 gathers all anchors in a hub
of red points within r/2 of the cube centre, from which the vertices
between an anchor and its part's cells walk out on red points
(``embed._HubTransit``).
A trial's record keeps the numbers that decide it: the hub's demand and
supply, and where a failure happened (step, part, resource and its id).
``verify_embedding`` is the only judge of a success in either mode: a
success it rejects raises ``RuntimeError`` instead of entering a curve.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import geometry, rgg, trees, embed as embed_mod

TREE_FAMILIES = ("truncated_regular", "uniform", "bounded_random", "path")


# ---------------------------------------------------------------------------
# small statistics helpers

def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """Wilson 95% score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def is_statistically_nondecreasing(successes, trials, alpha: float = 0.05) -> bool:
    """No adjacent pair of the curve shows a significant drop (one-sided
    Fisher exact test at level alpha)."""
    # imported here: scipy.stats is about half the import time of this
    # module, and no trial needs it
    from scipy import stats as sstats

    for i in range(len(successes) - 1):
        table = [
            [successes[i], trials[i] - successes[i]],
            [successes[i + 1], trials[i + 1] - successes[i + 1]],
        ]
        _, p = sstats.fisher_exact(table, alternative="greater")
        if p < alpha:
            return False
    return True


# ---------------------------------------------------------------------------
# configuration and per-trial records

@dataclass
class ExperimentConfig:
    """Parameters of a universality sweep (also used for single trials)."""

    n: int
    d: int
    delta: int
    tree_family: str = "bounded_random"
    r_values: tuple = ()          # explicit radii; exclusive with r_multipliers
    r_multipliers: tuple = ()     # multiples of r_c
    trials: int = 1
    seed: int = 0
    mode: str = "sim"             # "paper" | "sim"
    epsilon_override: float | None = None
    m_override: float | None = None
    fix_tree: bool = False
    store_embeddings: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.tree_family not in TREE_FAMILIES:
            raise ValueError(f"unknown tree family {self.tree_family!r}")
        if self.mode not in ("paper", "sim"):
            raise ValueError(f"mode must be 'paper' or 'sim', got {self.mode!r}")
        if bool(self.r_values) == bool(self.r_multipliers):
            raise ValueError("give exactly one of r_values / r_multipliers (non-empty)")
        rs = self.r_values or self.r_multipliers
        if any(x <= 0 for x in rs):
            raise ValueError("radii and multipliers must be positive")

    def radii(self) -> list[tuple[float, float | None]]:
        """List of (r, multiplier-or-None) pairs this config runs."""
        if self.r_values:
            return [(float(r), None) for r in self.r_values]
        r_c = geometry.critical_radius(self.n, self.d, self.delta)
        return [(mult * r_c, float(mult)) for mult in self.r_multipliers]


@dataclass
class TrialRecord:
    """One universality trial.  ``status`` is success / failure / infeasible.

    ``hub_demanded``, ``hub_available``, ``walked`` and ``max_blue_overflow``
    copy ``embed_tree``'s diagnostics (``None`` where absent: the hub exists
    only in sim mode, the last two only on a success); the ``failure_*``
    fields copy its ``FailureInfo``.  ``runtime_s`` and the stage times
    ``t_geometry``, ``t_sample`` (points, colours, graph index), ``t_tree``,
    ``t_embed`` (split and placement) and ``t_verify`` are wall seconds, 0.0
    for a stage not reached, and outside the replay contract."""

    status: str
    n: int
    d: int
    delta: int
    r: float
    r_multiplier: float | None
    seed: int
    family: str
    s: int | None = None
    eta: int | None = None
    epsilon_eff: float | None = None
    m: float | None = None
    k: int | None = None
    tree_max_degree: int | None = None
    hub_demanded: int | None = None
    hub_available: int | None = None
    walked: int | None = None
    max_blue_overflow: int | None = None
    failure_step: int | None = None
    failure_iteration: int | None = None
    failure_resource: str | None = None
    failure_resource_id: tuple | int | None = None
    failure_demanded: float | None = None
    failure_available: float | None = None
    infeasible_reason: str | None = None
    validator_ok: bool | None = None
    runtime_s: float = 0.0
    t_geometry: float = 0.0
    t_sample: float = 0.0
    t_tree: float = 0.0
    t_embed: float = 0.0
    t_verify: float = 0.0
    embedding: np.ndarray | None = None

    def replay_key(self) -> tuple:
        """The deterministic part of the record (everything but timings and
        the embedding array itself)."""
        skip = {"runtime_s", "t_geometry", "t_sample", "t_tree", "t_embed",
                "t_verify", "embedding"}
        return tuple(v for k, v in sorted(asdict(self).items()) if k not in skip)

    def to_row(self) -> dict:
        row = asdict(self)
        row.pop("embedding")
        return row


@dataclass
class _SharedGeometry:
    """Tessellation + transit balls reused across the trials of one config."""

    tess: geometry.Tessellation | None
    balls: geometry.BallSystem | None
    epsilon_eff: float | None
    m: float | None
    infeasible_reason: str | None
    # sim mode: the geometry of each other cell count a trial radius asks for
    by_s: dict = field(default_factory=dict, repr=False)


def _prepare_geometry(config: ExperimentConfig, r_ref: float | None = None) -> _SharedGeometry:
    """Tessellation, transit balls and part weight of one configuration; the
    cell count comes from the window around r_c, or around ``r_ref``."""
    n, d, delta = config.n, config.d, config.delta
    try:
        if config.mode == "paper":
            eps = geometry.epsilon_param(n, d, delta)
            if config.epsilon_override is not None:
                raise ValueError("epsilon_override is a simulation-mode knob")
        else:
            eps = geometry.simulation_epsilon(n, d, delta, config.epsilon_override)
        s = geometry.choose_odd_s(n, d, delta, eps, r_ref)
        tess = geometry.build_tessellation(d, s)
        balls = geometry.BallSystem(tess, eps)
    except geometry.GeometryInfeasible as exc:
        return _SharedGeometry(None, None, None, None, str(exc))

    m_paper = n / (8 * d * s**d)
    m = m_paper
    if config.m_override is not None:
        if config.mode == "paper":
            raise ValueError("m_override is a simulation-mode knob")
        m = float(config.m_override)
    m0 = m / (delta + 1)
    if m0 < 1.0 - 1e-12:
        return _SharedGeometry(
            tess,
            balls,
            eps,
            None,
            f"part weight window infeasible: m0 = m/(delta+1) = {m0:.4g} < 1 "
            f"(m = {m:.6g}); unit vertex weights exceed m0",
        )
    if m >= n:
        return _SharedGeometry(
            tess, balls, eps, None,
            f"m = {m:.6g} >= n = {n}: the whole tree is a single anchor-free part",
        )
    return _SharedGeometry(tess, balls, eps, m, None)


def _trial_geometry(config: ExperimentConfig, shared: _SharedGeometry, r: float) -> _SharedGeometry:
    """Sim mode sizes its cells from the trial's radius: the s window takes
    max(r_c, r/(1+eps)) in place of r_c, so a radius with slack gets larger
    cells.  A cell count other than ``shared``'s is built once and cached
    on ``shared``."""
    n, d, delta = config.n, config.d, config.delta
    eps = geometry.simulation_epsilon(n, d, delta, config.epsilon_override)
    r_ref = r / (1.0 + eps)
    if r_ref <= geometry.critical_radius(n, d, delta):
        return shared
    try:
        s = geometry.choose_odd_s(n, d, delta, eps, r_ref)
    except geometry.GeometryInfeasible as exc:
        return _SharedGeometry(None, None, None, None, str(exc))
    if shared.tess is not None and shared.tess.s == s:
        return shared
    if s not in shared.by_s:
        shared.by_s[s] = _prepare_geometry(config, r_ref)
    return shared.by_s[s]


def _make_tree(config: ExperimentConfig, seed) -> trees.Tree:
    family = config.tree_family
    if family == "truncated_regular":
        return trees.truncated_regular_tree(config.n, config.delta)
    if family == "path":
        return trees.path_tree(config.n)
    if family == "uniform":
        return trees.uniform_random_tree(config.n, seed)
    if family == "bounded_random":
        return trees.random_bounded_degree_tree(config.n, config.delta, seed)
    raise ValueError(f"unknown tree family {family!r}")


def run_universality_trial(
    config: ExperimentConfig,
    r: float,
    seed: int,
    shared: _SharedGeometry | None = None,
    r_multiplier: float | None = None,
    fixed_tree: trees.Tree | None = None,
) -> TrialRecord:
    """Sample points and colours, generate one tree, run the embedding, and
    validate any success.  Infeasible constructions are recorded, not raised;
    a success the validator rejects raises ``RuntimeError``.
    """
    t0 = time.perf_counter()
    n, d, delta = config.n, config.d, config.delta
    ss = np.random.SeedSequence(seed)
    seed_points, seed_colors, seed_tree = ss.spawn(3)

    base = dict(
        n=n, d=d, delta=delta, r=float(r), r_multiplier=r_multiplier,
        seed=seed, family=config.tree_family,
    )

    if n <= 2:
        # no tessellation at this size: every tree is a path, embedded by
        # the identity map, which succeeds when the two points are adjacent
        points = rgg.sample_points(n, d, seed_points)
        graph = rgg.build_graph(points, r)
        record = TrialRecord(status="failure", t_sample=time.perf_counter() - t0, **base)
        if n == 1 or graph.has_edge(0, 1):
            result = embed_mod.Embedding(map=np.arange(n, dtype=np.int64), status="success")
            _certify(record, config, trees.path_tree(n), graph, result)
        record.runtime_s = time.perf_counter() - t0
        return record

    if shared is None:
        shared = _prepare_geometry(config)
    if config.mode == "sim":
        shared = _trial_geometry(config, shared, r)
    t1 = time.perf_counter()
    if shared.infeasible_reason is not None:
        return TrialRecord(
            status="infeasible",
            infeasible_reason=shared.infeasible_reason,
            s=shared.tess.s if shared.tess else None,
            epsilon_eff=shared.epsilon_eff,
            runtime_s=time.perf_counter() - t0,
            t_geometry=t1 - t0,
            **base,
        )
    tess, balls, m = shared.tess, shared.balls, shared.m

    points = rgg.sample_points(n, d, seed_points)
    colors = rgg.color_points(points, 0.5, seed_colors)
    graph = rgg.build_graph(points, r)
    t2 = time.perf_counter()
    tree = fixed_tree if fixed_tree is not None else _make_tree(config, seed_tree)
    t3 = time.perf_counter()

    record = TrialRecord(
        status="",
        s=tess.s,
        eta=tess.eta,
        epsilon_eff=shared.epsilon_eff,
        m=m,
        tree_max_degree=tree.max_degree(),
        t_geometry=t1 - t0,
        t_sample=t2 - t1,
        t_tree=t3 - t2,
        **base,
    )

    if tree.max_degree() > delta:
        record.status = "infeasible"
        record.infeasible_reason = (
            f"tree max degree {tree.max_degree()} exceeds delta = {delta}"
        )
        record.runtime_s = time.perf_counter() - t0
        return record

    # sim mode routes Step 1 through the hub instead of the transit balls
    transit = balls if config.mode == "paper" else None
    result = embed_mod.embed_tree(tree, graph, colors, tess, transit, m, delta)
    record.t_embed = time.perf_counter() - t3
    diag = result.diagnostics
    record.k = diag.get("k")
    record.hub_demanded = diag.get("hub_demanded")
    record.hub_available = diag.get("hub_available")
    record.walked = diag.get("walked")
    record.max_blue_overflow = diag.get("max_blue_overflow")
    if result.ok:
        _certify(record, config, tree, graph, result)
    else:
        failure = result.failure
        record.status = "failure"
        record.failure_step = failure.step
        record.failure_iteration = failure.iteration
        record.failure_resource = failure.resource
        record.failure_resource_id = failure.resource_id
        record.failure_demanded = failure.demanded
        record.failure_available = failure.available
    record.runtime_s = time.perf_counter() - t0
    return record


def _certify(record: TrialRecord, config: ExperimentConfig, tree: trees.Tree,
             graph: rgg.GeometricGraph, result: embed_mod.Embedding) -> None:
    """Record a success once ``verify_embedding`` accepts it; raise if not."""
    t0 = time.perf_counter()
    check = embed_mod.verify_embedding(tree, graph, result)
    record.t_verify = time.perf_counter() - t0
    if not check.ok:
        raise RuntimeError(
            f"embedding success failed independent validation: {check.violation}"
        )
    record.status = "success"
    record.validator_ok = True
    if config.store_embeddings:
        record.embedding = result.map


@dataclass
class CurvePoint:
    r: float
    r_multiplier: float | None
    trials: int
    successes: int
    frequency: float
    wilson_low: float
    wilson_high: float
    mean_runtime_s: float
    failures_geometry: int
    failures_step1: int
    failures_step2: int
    infeasible: int

    def to_row(self) -> dict:
        return asdict(self)


@dataclass
class ThresholdCurve:
    config: ExperimentConfig
    points: list[CurvePoint]
    records: list[list[TrialRecord]]

    def frequencies(self) -> list[float]:
        return [p.frequency for p in self.points]

    def nondecreasing(self, alpha: float = 0.05) -> bool:
        return is_statistically_nondecreasing(
            [p.successes for p in self.points],
            [p.trials for p in self.points],
            alpha,
        )


def run_threshold_sweep(config: ExperimentConfig) -> ThresholdCurve:
    """Independent trials for every radius with split RNG streams."""
    radii = config.radii()
    rng = np.random.default_rng(config.seed)
    trial_seeds = rng.integers(0, 2**63 - 1, size=(len(radii), config.trials))

    fixed_tree = None
    if config.fix_tree:
        tree_seed = np.random.SeedSequence(config.seed).spawn(1)[0]
        fixed_tree = _make_tree(config, tree_seed)

    shared = _prepare_geometry(config) if config.n > 2 else None
    points: list[CurvePoint] = []
    all_records: list[list[TrialRecord]] = []
    for i, (r, mult) in enumerate(radii):
        recs = [
            run_universality_trial(
                config, r, int(trial_seeds[i, j]), shared=shared,
                r_multiplier=mult, fixed_tree=fixed_tree,
            )
            for j in range(config.trials)
        ]
        all_records.append(recs)
        successes = sum(rec.status == "success" for rec in recs)
        lo, hi = wilson_interval(successes, len(recs))
        points.append(
            CurvePoint(
                r=r,
                r_multiplier=mult,
                trials=len(recs),
                successes=successes,
                frequency=successes / len(recs),
                wilson_low=lo,
                wilson_high=hi,
                mean_runtime_s=float(np.mean([rec.runtime_s for rec in recs])),
                failures_geometry=sum(
                    rec.status == "failure" and rec.failure_step == 0 for rec in recs
                ),
                failures_step1=sum(
                    rec.status == "failure" and rec.failure_step == 1 for rec in recs
                ),
                failures_step2=sum(
                    rec.status == "failure" and rec.failure_step == 2 for rec in recs
                ),
                infeasible=sum(rec.status == "infeasible" for rec in recs),
            )
        )
    return ThresholdCurve(config=config, points=points, records=all_records)


# ---------------------------------------------------------------------------
# lower-bound experiment

@dataclass
class LowerBoundTrial:
    """Certified bracket diameter <= D <= diameter_upper; ``obstructed`` is
    diameter > 2h, and when it is False, diameter_upper <= 2h."""

    seed: int
    diameter: float
    diameter_upper: float
    diameter_exact: bool
    obstructed: bool
    corner_occupied: bool


@dataclass
class LowerBoundRecord:
    n: int
    d: int
    delta: int
    r: float
    h: int
    two_h: int
    analytic_diameter_bound: float
    corner_hit_probability: float   # 1 - (1 - n^(-1/2))^n
    trials: list[LowerBoundTrial]

    @property
    def obstruction_fraction(self) -> float:
        return sum(t.obstructed for t in self.trials) / len(self.trials)

    @property
    def corner_fraction(self) -> float:
        return sum(t.corner_occupied for t in self.trials) / len(self.trials)

    def to_rows(self) -> list[dict]:
        common = dict(
            n=self.n, d=self.d, delta=self.delta, r=self.r, h=self.h,
            two_h=self.two_h, analytic_diameter_bound=self.analytic_diameter_bound,
            corner_hit_probability=self.corner_hit_probability,
        )
        return [dict(common, **asdict(t)) for t in self.trials]


def run_lower_bound_experiment(
    n: int, d: int, delta: int, r: float, trials: int, seed: int,
) -> LowerBoundRecord:
    """Hop diameter of G_d(n, r) bracketed until it is decided against twice
    the height h of the truncated regular tree: a trial is *obstructed* when
    its lower end exceeds 2h, which certifies that the tree cannot embed in
    that sample; otherwise its upper end is at most 2h."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if r <= 0:
        raise ValueError("r must be positive")
    h = trees.height_h(n, delta)
    corner_side = n ** (-1.0 / (2 * d))
    seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=trials)
    out = []
    for s_i in seeds:
        points = rgg.sample_points(n, d, int(s_i))
        graph = rgg.build_graph(points, r)
        diam = rgg.hop_diameter(graph, bound=2 * h)
        corner = bool(np.any(np.all(points.coords <= corner_side, axis=1)))
        out.append(
            LowerBoundTrial(
                seed=int(s_i),
                diameter=diam.value,
                diameter_upper=diam.upper,
                diameter_exact=diam.exact,
                obstructed=bool(diam.value > 2 * h),
                corner_occupied=corner,
            )
        )
    return LowerBoundRecord(
        n=n,
        d=d,
        delta=delta,
        r=r,
        h=h,
        two_h=2 * h,
        analytic_diameter_bound=(1 - 2 * n ** (-1.0 / (2 * d))) * math.sqrt(d) / r,
        corner_hit_probability=1.0 - (1.0 - n**-0.5) ** n,
        trials=out,
    )


# ---------------------------------------------------------------------------
# concentration experiment

@dataclass
class ConcentrationRecord:
    n: int
    a: float
    p: float
    trials: int
    expected: float                  # a * n * p
    deviation: float                 # (anp)^(2/3)
    bound: float                     # 2 exp(-(anp)^(1/3) / 3)
    violations: int
    counts: list[int]

    @property
    def violation_frequency(self) -> float:
        return self.violations / self.trials

    def wilson(self) -> tuple[float, float]:
        return wilson_interval(self.violations, self.trials)

    def to_rows(self) -> list[dict]:
        common = dict(
            n=self.n, a=self.a, p=self.p, expected=self.expected,
            deviation=self.deviation, bound=self.bound,
        )
        return [
            dict(common, trial=i, count=c,
                 violation=bool(abs(c - self.expected) > self.deviation))
            for i, c in enumerate(self.counts)
        ]


def run_concentration_check(
    n: int, a: float, p: float, trials: int, seed: int
) -> ConcentrationRecord:
    """Empirical tail frequency of the thinned point count in a region of
    volume a, against the bound 2 exp(-(anp)^(1/3)/3).

    Honest simulation on the line: sample n uniform points, count those in
    [0, a], keep each independently with probability p.
    """
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    if n < 10 / p:
        raise ValueError(f"need n >= 10/p = {10 / p:.6g}")
    if not 0 < a <= 1:
        raise ValueError("a must be in (0, 1]")
    if a < 10 / (n * p):
        raise ValueError(f"need a >= 10/(np) = {10 / (n * p):.6g}")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    anp = a * n * p
    deviation = anp ** (2.0 / 3.0)
    rng = np.random.default_rng(seed)
    counts = []
    for _ in range(trials):
        xs = rng.random(n)
        in_region = xs <= a
        if p == 1.0:
            kept = int(in_region.sum())
        else:
            kept = int((in_region & (rng.random(n) < p)).sum())
        counts.append(kept)
    violations = sum(abs(c - anp) > deviation for c in counts)
    return ConcentrationRecord(
        n=n,
        a=a,
        p=p,
        trials=trials,
        expected=anp,
        deviation=deviation,
        bound=2.0 * math.exp(-(anp ** (1.0 / 3.0)) / 3.0),
        violations=violations,
        counts=counts,
    )


# ---------------------------------------------------------------------------
# 1-d greedy experiment

@dataclass
class Prop1Point:
    c: float
    r: float
    trials: int
    successes: int
    frequency: float
    wilson_low: float
    wilson_high: float
    mean_tree_height: float
    mean_tree_width: float

    def to_row(self) -> dict:
        return asdict(self)


@dataclass
class Prop1Curve:
    n: int
    points: list[Prop1Point]

    def nondecreasing(self, alpha: float = 0.05) -> bool:
        return is_statistically_nondecreasing(
            [p.successes for p in self.points],
            [p.trials for p in self.points],
            alpha,
        )


def run_prop1_experiment(n: int, c_values, trials: int, seed: int) -> Prop1Curve:
    """Greedy line-embedding success frequency for uniform random trees at
    r = c * n^(-1/2), plus the observed height/width of the sampled trees."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n < 2:
        raise ValueError("n must be >= 2")
    c_values = [float(c) for c in c_values]
    if any(c <= 0 for c in c_values):
        raise ValueError("c values must be positive")

    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**63 - 1, size=(len(c_values), trials))
    points_out = []
    for i, c in enumerate(c_values):
        r = min(c * n**-0.5, 1.0)
        successes = 0
        heights, widths = [], []
        for j in range(trials):
            ss = np.random.SeedSequence(int(seeds[i, j]))
            s_pts, s_tree = ss.spawn(2)
            pts = rgg.sample_points(n, 1, s_pts)
            graph = rgg.build_graph(pts, r)
            tree = trees.uniform_random_tree(n, s_tree)
            dist = trees.hop_distances(tree, 0)
            heights.append(int(dist.max()))
            widths.append(int(np.bincount(dist).max()))
            result = embed_mod.greedy_line_embed(tree, graph)
            if result.ok:
                check = embed_mod.verify_embedding(tree, graph, result)
                if not check.ok:
                    raise RuntimeError(
                        f"greedy success failed independent validation: {check.violation}"
                    )
                successes += 1
        lo, hi = wilson_interval(successes, trials)
        points_out.append(
            Prop1Point(
                c=c,
                r=r,
                trials=trials,
                successes=successes,
                frequency=successes / trials,
                wilson_low=lo,
                wilson_high=hi,
                mean_tree_height=float(np.mean(heights)),
                mean_tree_width=float(np.mean(widths)),
            )
        )
    return Prop1Curve(n=n, points=points_out)


# ---------------------------------------------------------------------------
# output

def write_rows(path, rows: list[dict], fmt: str = "csv") -> None:
    """Write a list of flat dicts as CSV (one header from the union of keys)
    or as a JSON array with the same fields."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=2, default=str)
        return
    keys: list[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        writer.writerows(rows)
