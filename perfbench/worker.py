"""One benchmark workload, run in this process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --setup-only

``run.py`` starts it from the repository root with ``PYTHONPATH`` set to the
root's ``src`` and every thread pool pinned to one thread.  The program gets
only inputs generated from ``--seed``; the trials run one after another
through the public harness functions until ``--seconds`` of trial time have
passed (at least ``MIN_TRIALS`` trials).  Each outcome is re-checked by
``checks`` right after its trial, outside the timed region.  numpy is
imported inside functions so that its import is timed as part of
``import rggembed``.

With ``--trace 1`` each trial seed runs twice, once with the tracing wrappers
installed and once without, in alternating order over an even number of
seeds; the per-layer numbers come from the traced runs and the tracing
overhead from the mean difference.  The tracemalloc peak of the edge build
comes from one more traced run of the first seed, made after the timed ones.

On a shared virtual machine one CPU can run at half the speed of another
while other tenants load its host core, and the whole host slows and speeds
up by 30% from one minute to the next.  So before set-up and before every
trial the process times a fixed reference loop on each CPU it may use and
pins itself to the fastest, and it times the loop again after the block.
Besides wall seconds it reports nominal seconds: the wall time scaled by
``REFERENCE_LOOP_S`` over the mean of those two loop times, i.e. the time
the block would take on a core that runs the loop in ``REFERENCE_LOOP_S``.
Nominal seconds are what the end-to-end metrics report; they halve the
run-to-run spread of the trial times on such a host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback

from run import THREAD_VARS

MIN_TRIALS = 3      # the outcome digest covers this many leading trials
CSR_ROWS = 256      # CSR rows re-checked by brute force per lower-bound trial
CPUS = sorted(os.sched_getaffinity(0))
# The reference loop's time on an unloaded core of the 2.1 GHz Xeon host the
# benchmark was written on; it fixes the unit of nominal seconds.
REFERENCE_LOOP_S = 0.005


def reference_loop() -> float:
    """Best of two timings of a fixed pure-Python loop on the current CPU."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for k in range(100_000):
            total += k * k
        best = min(best, time.perf_counter() - start)
    return best


class NominalTimer:
    """Context manager: pins to the fastest allowed CPU on entry, then gives
    the block's ``wall`` seconds and its ``nominal`` seconds."""

    def __enter__(self):
        loops = {}
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            loops[cpu] = reference_loop()
        self.cpu = min(loops, key=loops.get)
        os.sched_setaffinity(0, {self.cpu})
        self._loop = loops[self.cpu]
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._start
        loop = (self._loop + reference_loop()) / 2
        self.nominal = self.wall * REFERENCE_LOOP_S / loop


class EmbedWorkload:
    """Universality trials of the path tree through ``run_universality_trial``,
    cycling through the radius multiples."""

    def __init__(self, rggembed, n: int, d: int, multiples: tuple, m: float):
        # functions are looked up at call time, so that the tracer's
        # wrappers are used only while installed
        self.harness = harness = rggembed.harness
        self.config = harness.ExperimentConfig(
            n=n, d=d, delta=3, tree_family="path", r_multipliers=multiples,
            mode="sim", epsilon_override=4.9, m_override=m,
        )
        self.radii = self.config.radii()
        # the one-time set-up run_threshold_sweep shares across its trials
        self.shared = harness._prepare_geometry(self.config)
        if self.shared.infeasible_reason is not None:
            raise RuntimeError(self.shared.infeasible_reason)
        # The transit balls are built lazily on first use, which every trial
        # makes; build them here so that their cost shows in set-up time.
        tess, balls = self.shared.tess, self.shared.balls
        balls.max_consecutive_gap()
        for cell in range(tess.n_cells):
            if cell != tess.central_cell:
                balls.for_target(cell)

    def run(self, i: int, seed: int):
        r, multiple = self.radii[i % len(self.radii)]
        return self.harness.run_universality_trial(
            self.config, r, seed, shared=self.shared, r_multiplier=multiple
        )

    @staticmethod
    def key(record) -> tuple:
        return record.replay_key()

    @staticmethod
    def success(record) -> bool:
        return record.status == "success"

    def check(self, record) -> str | None:
        import numpy as np
        from checks import check_embedding

        if record.status not in ("success", "failure"):
            return f"trial {record.status}: {record.infeasible_reason}"
        if record.status == "failure":
            return None
        if not record.validator_ok:
            return "verify_embedding rejected a reported success"
        n, d = self.config.n, self.config.d
        # points come from the first of three streams spawned from the trial seed
        points_seed = np.random.SeedSequence(record.seed).spawn(3)[0]
        coords = np.random.default_rng(points_seed).random((n, d))
        tail = np.arange(n - 1)
        return check_embedding(record.embedding, coords, record.r, tail, tail + 1)


class LowerBoundWorkload:
    """One-trial calls of ``run_lower_bound_experiment``: full edge set, CSR
    and hop diameter, no tree embedding."""

    def __init__(self, rggembed, n: int, d: int, multiple: float):
        self.n, self.d, self.delta = n, d, 3
        self.r = multiple * rggembed.geometry.critical_radius(n, d, self.delta)
        self.harness = rggembed.harness
        # Keep the graph of the trial in flight so that its CSR can be checked.
        graph_cls = rggembed.rgg.GeometricGraph
        init = graph_cls.__init__
        self.graph = None

        def keep_graph(graph, *args, **kwargs):
            init(graph, *args, **kwargs)
            self.graph = graph

        graph_cls.__init__ = keep_graph

    def run(self, i: int, seed: int):
        return self.harness.run_lower_bound_experiment(
            self.n, self.d, self.delta, self.r, trials=1, seed=seed
        )

    @staticmethod
    def key(record) -> tuple:
        t = record.trials[0]
        return (t.diameter, t.diameter_exact, t.obstructed)

    @staticmethod
    def success(record) -> bool:
        return record.trials[0].obstructed

    def check(self, record) -> str | None:
        import numpy as np
        from checks import check_csr_rows

        graph, self.graph = self.graph, None
        t = record.trials[0]
        n, d = self.n, self.d
        coords = np.random.default_rng(t.seed).random((n, d))
        if graph is None or not np.array_equal(graph.points.coords, coords):
            return "graph points are not the points drawn from the trial seed"
        if t.corner_occupied != bool(np.any(np.all(coords <= n ** (-1.0 / (2 * d)), axis=1))):
            return "corner_occupied disagrees with the points"
        if t.obstructed != (t.diameter > record.two_h):
            return "obstructed disagrees with diameter > 2h"
        adj = graph.adjacency()
        rows = np.random.default_rng(t.seed).choice(n, CSR_ROWS, replace=False)
        return check_csr_rows(adj.indptr, adj.indices, coords, self.r, rows)


WORKLOADS = {
    "embed_d2_path": lambda pkg: EmbedWorkload(pkg, 100_000, 2, (8.0,), 85.0),
    "embed_d1_path": lambda pkg: EmbedWorkload(pkg, 30_000, 1, (5.0, 6.0, 8.0), 700.0),
    "lowerbound_d2": lambda pkg: LowerBoundWorkload(pkg, 30_000, 2, 0.6),
}

# Per-layer metric of a span: by span name first, else by its layer.  Spans
# of rgg and embed named in neither table appear only in the span table.
SPAN_METRIC = {
    "rgg.sample_points": "rgg.sample_s",
    "rgg.color_points": "rgg.sample_s",
    "rgg.build_graph": "rgg.index_s",
    "rgg.GeometricGraph.adjacency": "rgg.adjacency_s",
    "rgg.GeometricGraph.edges": "rgg.adjacency_s",
    "rgg.hop_diameter": "rgg.diameter_s",
    "rgg.GeometricGraph.is_connected": "rgg.diameter_s",
    "embed.check_event_a": "embed.event_a_s",
    "embed.embed_tree": "embed.place_s",
    "embed.verify_embedding": "embed.verify_s",
}
LAYER_METRIC = {
    "geometry": "geometry.trial_s",
    "trees": "trees.make_s",
    "decompose": "decompose.split_s",
    "harness": "harness.self_s",
}


def layer_metrics(tracer, traced: int) -> tuple[dict, dict]:
    """Per-trial means of self times and counts over the traced trials,
    plus a table of every span name (calls, self seconds per trial)."""
    sums = dict.fromkeys([*SPAN_METRIC.values(), *LAYER_METRIC.values()], 0.0)
    sums["geometry.balls_s"] = 0.0
    table: dict[str, list] = {}
    parts_k = edges = placed = n_placed = exact = diameters = 0
    peak = 0
    for scope, name, self_s, info in tracer.self_times():
        if scope == "memory":
            peak = max(peak, (info or {}).get("peak_bytes", 0))
            continue
        layer = name.split(".", 1)[0]
        if scope == "setup":
            if layer == "geometry":
                sums["geometry.balls_s"] += self_s
            continue
        metric = SPAN_METRIC.get(name) or LAYER_METRIC.get(layer)
        if metric is not None:
            sums[metric] += self_s
        row = table.setdefault(name, [0, 0.0])
        row[0] += 1
        row[1] += self_s
        info = info or {}
        parts_k += info.get("parts_k", 0)
        edges += info.get("edges", 0)
        placed += info.get("placed", 0)
        n_placed += info.get("n", 0)
        if name == "rgg.hop_diameter":
            diameters += 1
            exact += info["exact"]
    out = {k: v if k == "geometry.balls_s" else v / traced for k, v in sums.items()}
    out.update({
        "rgg.edges": edges / traced,
        "rgg.adjacency_peak_mib": peak / 2**20,
        "rgg.diameter_exact_frac": exact / diameters if diameters else 0.0,
        "decompose.parts_k": parts_k / traced,
        "embed.placed_frac": placed / n_placed if n_placed else 0.0,
    })
    table = {k: {"calls": c / traced, "self_s": s / traced} for k, (c, s) in sorted(table.items())}
    return out, table


class Tally:
    """Runs trials of one workload, checks each outcome and counts them."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = self.successes = 0
        self.errors: list[str] = []
        self.cpus: dict[int, int] = {}   # trials run on each CPU

    def fail(self, i: int, problem: str) -> None:
        self.failed += 1
        self.errors.append(f"trial {i}: {problem}")

    def run(self, i: int, seed: int, tracer=None, scope=None, expect=None):
        """Run trial ``i`` (traced under ``scope``, default ``i``, when a tracer
        is given) and check it, and its outcome key against ``expect`` if
        given; return (NominalTimer, outcome key or None if it raised).
        Only the trial itself is timed."""
        if tracer is not None:
            tracer.scope = i if scope is None else scope
            tracer.install()
        timer = NominalTimer()
        try:
            with timer:
                out = self.workload.run(i, seed)
        except Exception:
            out = None
            problem = "raised " + traceback.format_exc(limit=3)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.scope = None
        self.cpus[timer.cpu] = self.cpus.get(timer.cpu, 0) + 1
        self.attempted += 1
        if out is None:
            self.fail(i, problem)
            return timer, None
        key = self.workload.key(out)
        problem = self.workload.check(out)
        if problem is None and expect is not None and key != expect:
            problem = "traced and untraced outcomes differ"
        if problem is not None:
            self.fail(i, problem)
        self.successes += self.workload.success(out)
        return timer, key


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "allowed_cpus": len(CPUS),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    tracer = None
    with NominalTimer() as setup:
        import rggembed
        import rggembed.harness

        src = os.path.abspath("src")
        if not os.path.abspath(rggembed.__file__).startswith(src + os.sep):
            raise SystemExit(f"rggembed was imported from {rggembed.__file__}, not from {src}")
        if args.trace:
            from tracing import MEMORY_SPANS, Tracer

            tracer = Tracer()
            tracer.scope = "setup"
            tracer.install()
        wl = WORKLOADS[args.workload](rggembed)
    setup_s = {"setup_s": setup.nominal, "setup_wall_s": setup.wall}
    if args.setup_only:
        print(json.dumps(setup_s))
        return 0
    if tracer is not None:
        tracer.uninstall()
        tracer.scope = None

    import numpy as np
    from checks import self_test

    missed = self_test()
    if missed:
        raise SystemExit("output-check self-test failed: " + "; ".join(missed))

    tally = Tally(wl)
    seeds = np.random.default_rng(args.seed)
    plain, traced_wall_s, keys, overhead = [], [], [], []
    wall = nominal = 0.0
    i = 0
    while i < MIN_TRIALS or wall < args.seconds or (tracer and i % 2):
        seed = int(seeds.integers(2**63 - 1))
        if i == 0:
            first_seed = seed
        first_key, done = None, {}
        for traced in ([False] if tracer is None else [i % 2 == 1, i % 2 == 0]):
            timer, key = tally.run(i, seed, tracer if traced else None, expect=first_key)
            wall += timer.wall
            nominal += timer.nominal
            if key is not None:
                if traced:
                    traced_wall_s.append(timer.wall)
                else:
                    plain.append(timer)
                done[traced] = timer.wall
                if first_key is None:
                    first_key = key
        if len(done) == 2:
            overhead.append(done[True] - done[False])
        if i < MIN_TRIALS and first_key is not None:
            keys.append(first_key)
        i += 1

    if tracer is not None and any(span[1] in MEMORY_SPANS for span in tracer.spans):
        tracer.measure_memory = True
        tally.run(0, first_seed, tracer, scope="memory", expect=keys[0] if keys else None)

    result = {
        **setup_s,
        "trial_s": [t.nominal for t in plain],
        "trial_wall_s": [t.wall for t in plain],
        "measured_s": nominal,
        "measured_wall_s": wall,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "successes": tally.successes,
        "errors": tally.errors,
        "digest": hashlib.sha256(repr(keys).encode()).hexdigest()[:16],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": dict(environment(), trials_per_cpu=tally.cpus),
    }
    if tracer is not None:
        result["layers"], result["spans"] = layer_metrics(tracer, max(1, len(traced_wall_s)))
        result["traced_wall_s"] = traced_wall_s
        result["overhead_s"] = overhead
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
