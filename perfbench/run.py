"""Run one workload of the funcldp benchmark and print its metrics.

    python3 perfbench/run.py --workload ladder|rates|curves --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` of the
same checkout.  The run sets up once, then repeats whole rounds of the
workload's operations for about ``--seconds`` seconds, checks every output
against the independent values in ``oracle.py`` and prints, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  Round outputs, the run summary and (traced) the spans
go to ``perfbench/out/<workload>-seed<N>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "mc_replicates_per_s": "1/s", "uniform_replicates_per_s": "1/s",
    "rate_cli_s": "s", "pair_rates_per_s": "1/s", "ratio_rates_per_s": "1/s",
    "estimate_rows_per_s": "1/s", "logmgf_replicates_per_s": "1/s", "cover_s": "s",
}
_SPAN_METRICS = [
    "cli.run.rate.s", "cli.run.simulate.s", "cli.run.uniform.s", "cli.run.estimate.s",
    "cli.run.cover.s",
    "funcdata.distance_to_rows.calls", "funcdata.distance_to_rows.rows",
    "funcdata.distance_to_rows.s",
    "estimator.z_n.calls", "estimator.z_n.s", "estimator.finite_n_log_mgf.s",
    "estimator.finite_n_log_mgf.us_per_replicate.n500",
    "estimator.finite_n_log_mgf.us_per_replicate.n2000",
    "estimator.finite_n_log_mgf.us_per_replicate.n8000",
    "simulate.sample_dataset.calls", "simulate.sample_dataset.s", "simulate.sample_dataset.mb",
    "simulate.pointwise_ladder.s", "simulate.us_per_replicate.n200",
    "simulate.us_per_replicate.n2000", "simulate.us_per_replicate.n20000",
    "simulate.uniform_ladder.s", "simulate.induced_weight.s",
    "ratefn.tilted_mean.calls", "ratefn.tilted_mean.s", "ratefn.tilted_mean_range.calls",
    "ratefn.tilted_mean_inverse.calls", "ratefn.tilted_mean_inverse.s",
    "ratefn.closed_rate_uniform.s", "ratefn.ratio_rate_closed.s",
    "ratefn.ratio_rate_derivatives.s", "ratefn.two_sided_rate.s",
    "ratefn.legendre_rate.calls", "ratefn.legendre_rate.s",
    "ratefn.ratio_rate.calls", "ratefn.ratio_rate.s",
    "covering.greedy_cover.calls", "covering.greedy_cover.s", "covering.greedy_cover.peak_mb",
    "covering.coverage_radii.s", "covering.scale_class.s",
    "cli.self_s", "funcdata.self_s", "estimator.self_s", "ratefn.self_s", "simulate.self_s",
    "covering.self_s",
]
PER_LAYER_UNITS = {"calls": "count", "rows": "count", "mb": "MB", "peak_mb": "MB"}
SETUP_REPEATS = 5
# Median time of workloads.speed_probe on the reference host (2-core VM, see
# README).  End-to-end times are scaled to this host speed.
SPEED_REF_S = 0.012


def _unit(metric: str) -> str:
    field = metric.rpartition(".")[2]
    if field.startswith("n") and "us_per_replicate" in metric:
        return "us"
    return PER_LAYER_UNITS.get(field, "s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "funcldp", "cli.py")):
        print(f"error: no funcldp sources under {SRC}", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, SRC)

    started = time.perf_counter()
    import funcldp.cli  # noqa: E402 -- timed: numpy and scipy load here

    import_s = time.perf_counter() - started
    if os.path.dirname(os.path.abspath(funcldp.__file__)) != os.path.join(SRC, "funcldp"):
        print(f"error: funcldp imported from {funcldp.__file__}", file=sys.stderr)
        return 2

    import numpy as np
    import scipy

    import tracing
    import workloads

    if args.workload not in workloads.PROFILES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    profile = workloads.PROFILES[args.workload]
    print(f"python {platform.python_version()}, numpy {np.__version__}, scipy "
          f"{scipy.__version__}, cpus {threads}, funcldp {funcldp.__version__}")

    outdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)

    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workloads.build(funcldp, profile, outdir)
        builds.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(builds)
    workloads.capture_covers(funcldp.covering, inputs)
    refs = workloads.references(profile)

    ledger = workloads.Ledger()
    tracer = tracing.Tracer()
    rounds, traced_walls, plain_walls = [], [], []
    caught, speed = [], []
    min_rounds = 2 if args.trace else 1
    loop_start = time.perf_counter()
    # Probes run before and after the workload's own operations and count at
    # the faster pass, so short probes get two chances at a quiet moment.
    passes = (profile.probes, profile.focus, profile.probes)
    while True:
        k = len(rounds)
        traced = bool(args.trace) and k % 2 == 1
        if traced:
            tracing.install(tracer, funcldp)
        times, outputs, probes_before = {}, [], len(speed)
        try:
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                for j, ops in enumerate(passes):
                    seeds = tuple(int(s) for s in
                                  np.random.SeedSequence([args.seed, k, j]).generate_state(4))
                    out, pass_times = workloads.execute(
                        funcldp, inputs, ops, seeds, os.path.join(outdir, f"round{k}", f"pass{j}"),
                        after_op=lambda: speed.append(workloads.speed_probe()))
                    outputs.append(out)
                    for op, units in pass_times.items():
                        times[op] = list(map(min, times[op], units)) if op in times else units
        finally:
            tracer.restore()
        caught.extend(f"{w.category.__name__}: {w.message}" for w in seen)
        round_speed = statistics.median(speed[probes_before:])
        (traced_walls if traced else plain_walls).append(
            sum(map(sum, times.values())) * SPEED_REF_S / round_speed)
        rounds.append({"round": k, "traced": traced, "times": times, "speed": round_speed})
        for out in outputs:
            workloads.check(funcldp, inputs, refs, out, ledger)
        # Stop at the round boundary nearest to --seconds.
        elapsed = time.perf_counter() - loop_start
        if len(rounds) >= min_rounds and elapsed * (1 + 0.5 / len(rounds)) > args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    slowdown = statistics.median(speed) / SPEED_REF_S
    if args.trace:
        traced_rounds = len(traced_walls)
        metrics = tracing.layer_metrics(tracer.spans, traced_rounds, _SPAN_METRICS)
        metrics["cli.import_s"] = import_s
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(plain_walls))
        tracer.dump(os.path.join(outdir, "spans.json"))
        units = {m: _unit(m) for m in metrics}
    else:
        # The host's speed drifts by up to 1.7x within and across runs.  Each
        # round's unit times are scaled by the median speed probe of that
        # round, and each unit counts at its median over the rounds.
        scaled = [{op: [t * SPEED_REF_S / r["speed"] for t in units]
                   for op, units in r["times"].items()} for r in rounds]
        typical = {op: [statistics.median(u) for u in zip(*(r[op] for r in scaled))]
                   for op in scaled[0]}
        metrics = workloads.figures(profile, typical)
        metrics["setup_s"] = setup_s * SPEED_REF_S / rounds[0]["speed"]
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "import_s": import_s, "builds_s": builds, "rounds": rounds, "speed_probe_s": speed,
        "host_slowdown": slowdown,
        "warnings": sorted(set(caught)), "warning_count": len(caught),
        "failures": {name: {"count": c, "detail": d, "known": known}
                     for name, (c, d, known) in ledger.failures.items()},
    }
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1)

    for r in rounds:
        print(f"round {r['round']}{' traced' if r['traced'] else ''}: "
              + ", ".join(f"{k} {sum(v):.3f}s" for k, v in r["times"].items()))
    for name, (count, detail, known) in sorted(ledger.failures.items()):
        print(f"FAILED x{count}{' (known fault)' if known else ''}: {name}: {detail}")
    print(f"{args.workload}: {len(rounds)} rounds, {ledger.attempted} operations attempted, "
          f"{ledger.failed} failed ({ledger.failed - ledger.unexpected} known faults); "
          f"host {slowdown:.3f}x the reference speed probe")
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": ledger.unexpected == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
