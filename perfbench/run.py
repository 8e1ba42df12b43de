"""Benchmark of the rggembed trial pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src``.  Each
run starts ``worker.py`` for the workload in a fresh single-threaded process
(plus, untraced, a few processes that only time set-up), then prints two
JSON lines: a detail line (environment, sample counts, outcome digest,
check failures, span table) and the result line.  The result holds the
end-to-end metrics with ``--trace 0`` and the per-layer metrics of a traced
run with ``--trace 1``.  It exits 1 when an output check fails and 2 when
the benchmark cannot run at all, printing no result.

End-to-end times are nominal seconds (see ``worker.py``): wall seconds
scaled to a fixed reference speed of the CPU they ran on, measured around
each timed block, because the shared host's speed drifts by 30% between
minutes.  The detail line also gives the wall seconds.  Per-layer times are
wall seconds of the traced trials.

Workloads (see BENCHMARK.json for why each was chosen):

- ``embed_d2_path``: criterion-7 trial, n=1e5, d=2, path tree, r = 8 r_c;
- ``embed_d1_path``: criterion-3 trial in the window, n=3e4, d=1, path
  tree, r in {5, 6, 8} r_c, cycled;
- ``lowerbound_d2``: criterion-5 trial, n=3e4, d=2, r = 0.6 r_c.

The pipeline is single-threaded with no queues, so no layer waits on
another and no wait time is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("embed_d2_path", "embed_d1_path", "lowerbound_d2")
SETUP_PROBES = 5      # set-up only processes; the workload process is one more sample
DEADLINE_S = 170.0    # every process this run starts ends by then
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
WAITS = "none: one single-threaded process with no queues, so no layer waits on another"


class BenchError(Exception):
    pass


def run_worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args], env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish by the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"worker {args} printed no result: {proc.stdout[-500:]!r}") from None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(res: dict, setup: list[float]) -> dict:
    trial_s = res["trial_s"]
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "trials_per_s": metric(len(trial_s) / res["measured_s"], "1/s"),
        "trial_s_p50": metric(statistics.median(trial_s), "s"),
        "peak_rss_mib": metric(res["peak_rss_mib"], "MiB"),
    }


LAYER_UNITS = {
    "harness.self_s": "s",
    "rgg.sample_s": "s",
    "rgg.index_s": "s",
    "rgg.adjacency_s": "s",
    "rgg.diameter_s": "s",
    "trees.make_s": "s",
    "decompose.split_s": "s",
    "embed.event_a_s": "s",
    "embed.place_s": "s",
    "embed.verify_s": "s",
    "geometry.trial_s": "s",
    "geometry.balls_s": "s",
    "rgg.edges": "count",
    "rgg.adjacency_peak_mib": "MiB",
    "rgg.diameter_exact_frac": "ratio",
    "decompose.parts_k": "count",
    "embed.placed_frac": "ratio",
}


def per_layer(res: dict) -> dict:
    out = {name: metric(res["layers"][name], unit) for name, unit in LAYER_UNITS.items()}
    overhead = statistics.mean(res["overhead_s"])
    out.update({
        "harness.trials": metric(len(res["traced_wall_s"]), "count"),
        "harness.success_frac": metric(res["successes"] / res["attempted"], "ratio"),
        "harness.error_frac": metric(res["failed"] / res["attempted"], "ratio"),
        "trace.overhead_s": metric(overhead, "s"),
        "trace.overhead_frac": metric(overhead / statistics.mean(res["trial_wall_s"]), "ratio"),
    })
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join("src", "rggembed", "__init__.py")):
        print("perfbench: run from the repository root (no src/rggembed here)", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload]
    try:
        setup = []
        if not args.trace:
            setup = [run_worker(common + ["--setup-only"], deadline)
                     for _ in range(SETUP_PROBES)]
        res = run_worker(common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup.append(res)
    if not res["trial_s"] or (args.trace and not res["overhead_s"]):
        print("perfbench: no trial completed: " + " | ".join(res["errors"][:3]), file=sys.stderr)
        return 1

    def stats(values: list[float]) -> dict:
        return {"n": len(values), "p50": statistics.median(values),
                "min": min(values), "max": max(values)}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": res["env"],
        "trials": res["attempted"],
        "trial_s": stats(res["trial_s"]),
        "trial_wall_s": stats(res["trial_wall_s"]),
        "success_frac": res["successes"] / res["attempted"],
        "error_frac": res["failed"] / res["attempted"],
        "digest": res["digest"],
        "setup_s_samples": [x["setup_s"] for x in setup],
        "setup_wall_s_samples": [x["setup_wall_s"] for x in setup],
        "errors": res["errors"][:5],
        "waits": WAITS,
    }
    if args.trace:
        detail["spans"] = res["spans"]
    correct = res["failed"] == 0
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": per_layer(res) if args.trace else end_to_end(res, [x["setup_s"] for x in setup]),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
