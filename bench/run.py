#!/usr/bin/env python3
"""procval benchmark.

    python3 bench/run.py [--workload all|product-rule|dense-fold|cli-docs]
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; procval is imported from ``src/``. Each
workload runs in its own process with one Python thread and a closed loop.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run instead. ``--workload all`` runs the three workloads one after the
other, each in a child process, and prints a summary.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = {"product-rule": "product_rule", "dense-fold": "dense_fold",
             "cli-docs": "cli_docs"}
# Local dimensions whose bases and extraction matrices the warm-up fills.
WARM_DIMS = {"product-rule": (1, 2, 4), "dense-fold": (1, 2, 3, 4, 6, 8),
             "cli-docs": (2, 4)}
SETUP_PROBES = 6  # extra set-ups in fresh processes; setup_s is the median
DEFAULT_SECONDS = 20
END_TO_END = (("setup_s", "s"), ("verdicts_per_s", "1/s"), ("verdict_p50_ms", "ms"),
              ("verdict_p90_ms", "ms"), ("peak_rss_mb", "MB"))


# OpenBLAS threads for every run. With two threads on a two-core machine the
# idle BLAS thread busy-waits, and whenever anything else needed a core the
# answers slowed by up to 8x in trials.
BLAS_THREADS = 1


def import_procval():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "procval", "__init__.py")):
        sys.exit(f"bench: no procval sources under {src}; run from a checkout of the repository")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import procval
    import procval.cli  # noqa: F401  (the package does not import its CLI)
    return procval


def set_up(workload: str, seed: int, tracer_cls=None):
    """Import procval, build and write the workload's inputs, and fill the
    caches with one warm-up pass. Returns (procval, workload, tracer)."""
    import numpy as np

    pv = import_procval()
    tracer = None
    if tracer_cls is not None:
        tracer = tracer_cls()
        tracer.install()
    module = importlib.import_module(WORKLOADS[workload])
    if workload == "cli-docs":
        wl = module.build(pv, seed, os.path.join(OUT_DIR, "cli-docs-work"))
    else:
        wl = module.build(pv, seed)
    pv.gallery_names()
    for d in WARM_DIMS[workload]:
        pv.decompose(np.eye(d * d), (d, d))
    return pv, wl, tracer


def probe_setup(workload: str, seed: int) -> float:
    """Time one set-up in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench: set-up probe for {workload} failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(args) -> int:
    t0 = time.perf_counter()
    if args.setup_probe:
        set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    tracer_cls = None
    if args.trace:
        from tracing import Tracer as tracer_cls  # noqa: N813
    pv, wl, tracer = set_up(args.workload, args.seed, tracer_cls)
    setups = [time.perf_counter() - t0]

    from harness import check_answers, peak_rss_mb, quantile, run_rounds

    random_valid_s = 0.0
    if tracer is not None:
        random_valid_s = tracer.span_totals().get(
            "gallery.random_valid_process", {}).get("total", 0.0)
        tracer.reset()
    else:
        setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    phase_start = time.perf_counter()
    result = run_rounds(wl, args.seconds, tracer.end_round if tracer else None)
    phase_s = time.perf_counter() - phase_start
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    problems = check_answers(wl, result)

    def end_to_end(times):
        return {
            "setup_s": statistics.median(setups),
            "verdicts_per_s": len(times) / sum(times),
            "verdict_p50_ms": 1e3 * quantile(times, 0.5),
            "verdict_p90_ms": 1e3 * quantile(times, 0.9),
            "peak_rss_mb": rss,
        }

    labels = [op.label for op in wl.ops]
    e2e = end_to_end(result.question_times(labels))
    e2e_wall = end_to_end(result.question_times(labels, adjusted=False))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"blas_threads {os.environ['OPENBLAS_NUM_THREADS']}  python_threads 1")
    print(f"rounds {result.rounds}  attempted {result.attempted}  failed {result.failed}  "
          f"measured_phase_s {phase_s:.3f}")
    print("inputs " + json.dumps(wl.facts, sort_keys=True))
    print("answer times at the reference speed (unadjusted wall time in brackets)"
          if wl.speed_adjusted else "answer times in wall time")
    for name, unit in END_TO_END:
        print(f"{name} {e2e[name]:.6g} {unit}  ({e2e_wall[name]:.6g})")
    if not args.trace:
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
    for p in problems[:20]:
        print(f"PROBLEM {p}")

    if tracer is not None:
        from tracing import LAYER_METRICS
        layer = tracer.layer_metrics(result.rounds, random_valid_s)
        tracer.write(os.path.join(OUT_DIR, f"{args.workload}.spans.npz"), phase_start)
        metrics = {n: {"value": layer[n], "unit": u} for n, u in LAYER_METRICS}
        for n, u in LAYER_METRICS:
            print(f"{n} {layer[n]:.6g} {u}")
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    final = {"correct": not problems, "attempted": result.attempted,
             "failed": result.failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**final, "rounds": result.rounds, "inputs": wl.facts,
                   "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
                   "end_to_end": e2e, "end_to_end_unadjusted": e2e_wall},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(final))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Run each workload in its own process and print a summary."""
    status = 0
    summary = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
        if proc.stdout.strip():
            try:
                summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
            except json.JSONDecodeError:
                status = 1
    print("\nsummary")
    for name, res in summary.items():
        print(f"  {name}: correct {res['correct']}  attempted {res['attempted']}  "
              f"failed {res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"    {metric} {v['value']:.6g} {v['unit']}")
    if len(summary) != len(WORKLOADS):
        status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Fixed before numpy is imported anywhere in this process or its children.
    threads = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
